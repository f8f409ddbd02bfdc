#include "core/strategies.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "core/message.hpp"
#include "core/wire_format.hpp"
#include "strategy/rail_cost.hpp"

namespace rails::core {

namespace {

/// Builds the solver inputs for one protocol table, busy offsets included.
/// Quarantined rails are excluded — the engine guarantees at least one rail
/// stays usable (docs/FAULTS.md). A SUSPECT rail's trust penalty inflates
/// its cost curve so the solver hands it proportionally smaller chunks
/// (docs/CALIBRATION.md).
std::vector<strategy::SolverRail> solver_rails(
    const StrategyContext& ctx, std::vector<strategy::ProfileCost>& costs,
    const sampling::PerfProfile& (*table)(const sampling::RailProfile&)) {
  costs.clear();
  costs.reserve(ctx.rail_count());
  std::vector<strategy::SolverRail> rails;
  rails.reserve(ctx.rail_count());
  for (RailId r = 0; r < ctx.rail_count(); ++r) {
    costs.emplace_back(&table(ctx.estimator->profile(r)), ctx.rail_trust_penalty(r));
  }
  for (RailId r = 0; r < ctx.rail_count(); ++r) {
    if (!ctx.rail_usable(r)) continue;
    rails.push_back({r, &costs[r], ctx.rail_ready_offset(r)});
  }
  return rails;
}

/// Rails the strategy may plan onto (usable mask applied).
std::vector<RailId> usable_rails(const StrategyContext& ctx) {
  std::vector<RailId> out;
  out.reserve(ctx.rail_count());
  for (RailId r = 0; r < ctx.rail_count(); ++r) {
    if (ctx.rail_usable(r)) out.push_back(r);
  }
  return out;
}

const sampling::PerfProfile& rdv_chunk_table(const sampling::RailProfile& rp) {
  return rp.rdv_chunk;
}
const sampling::PerfProfile& eager_table(const sampling::RailProfile& rp) {
  return rp.eager;
}

/// Packs `pending` (in order) into as few segments as fit on `rail`,
/// splitting an oversized send across several segments if needed.
std::vector<EagerEmission> pack_onto_rail(const StrategyContext& ctx, RailId rail,
                                          std::span<const SendRequest* const> pending) {
  const std::size_t cap = ctx.nics[rail]->model().params().max_eager;
  std::vector<EagerEmission> emissions;
  EagerEmission current;
  current.rail = rail;
  std::size_t used = 0;

  auto flush = [&] {
    if (!current.pieces.empty()) {
      emissions.push_back(std::move(current));
      current = EagerEmission{};
      current.rail = rail;
      used = 0;
    }
  };

  for (const SendRequest* send : pending) {
    std::size_t offset = 0;
    // A zero-byte message still occupies one framed header.
    do {
      const std::size_t remaining = send->len - offset;
      std::size_t room = cap > used + SubPacket::kHeaderBytes
                             ? cap - used - SubPacket::kHeaderBytes
                             : 0;
      if (room == 0 && !current.pieces.empty()) {
        flush();
        continue;
      }
      const std::size_t take = std::min(remaining, room);
      RAILS_CHECK_MSG(take > 0 || remaining == 0, "rail segment cap too small");
      current.pieces.push_back({send, offset, take});
      used += framed_size(take);
      offset += take;
    } while (offset < send->len);
  }
  flush();
  return emissions;
}

/// True when some usable rail is idle: the only rails a strategy that never
/// posts onto a busy rail can feed.
bool usable_rail_idle(const StrategyContext& ctx) {
  for (RailId r = 0; r < ctx.rail_count(); ++r) {
    if (ctx.rail_usable(r) && ctx.nics[r]->idle(ctx.now)) return true;
  }
  return false;
}

/// A multicore split posts chunks onto busy rails from idle remote cores,
/// so the multicore strategies are blocked only while no remote core is
/// idle either.
EagerSchedule unless_remote_core_idle(const StrategyContext& ctx, EagerSchedule schedule) {
  schedule.blocked = schedule.blocked &&
                     ctx.cores->idle_count(ctx.now, ctx.config->scheduler_core) == 0;
  return schedule;
}

/// Completion-time estimate for aggregating `bytes` on `rail` right now.
SimTime eager_completion(const StrategyContext& ctx, RailId rail, std::size_t bytes) {
  const sampling::RailState state{rail, ctx.rail_busy_until(rail)};
  return ctx.estimator->completion(state, ctx.now, bytes, fabric::Protocol::kEager);
}

}  // namespace

// ---------------------------------------------------------------------------
// SingleRail
// ---------------------------------------------------------------------------

std::string SingleRail::name() const {
  return "single-rail:" + std::to_string(rail_);
}

EagerSchedule SingleRail::plan_eager(const StrategyContext& ctx,
                                     std::span<const SendRequest* const> pending) {
  EagerSchedule schedule;
  // Defer while the rail is busy: queued packets keep aggregating, exactly
  // like NewMadeleine's pack list. No other group can use the rail either.
  if (!ctx.nics[rail_]->idle(ctx.now)) {
    schedule.blocked = true;
    return schedule;
  }
  schedule.emissions = pack_onto_rail(ctx, rail_, pending);
  return schedule;
}

strategy::SplitResult SingleRail::plan_rendezvous(const StrategyContext&, std::size_t len) {
  strategy::SplitResult result;
  result.chunks = {{rail_, 0, len}};
  return result;
}

// ---------------------------------------------------------------------------
// GreedyBalance
// ---------------------------------------------------------------------------

EagerSchedule GreedyBalance::plan_eager(const StrategyContext& ctx,
                                        std::span<const SendRequest* const> pending) {
  EagerSchedule schedule;
  // Collect the rails currently idle; hand the queued messages to them
  // round-robin, one message per emission (no aggregation, no split).
  std::vector<RailId> idle;
  for (RailId r = 0; r < ctx.rail_count(); ++r) {
    if (ctx.rail_usable(r) && ctx.nics[r]->idle(ctx.now)) idle.push_back(r);
  }
  if (idle.empty()) {
    schedule.blocked = true;
    return schedule;
  }

  std::size_t next = 0;
  for (const SendRequest* send : pending) {
    const RailId rail = idle[next % idle.size()];
    ++next;
    if (send->len + SubPacket::kHeaderBytes >
        ctx.nics[rail]->model().params().max_eager) {
      continue;  // cannot fit whole on this rail; wait for another round
    }
    EagerEmission e;
    e.rail = rail;
    e.pieces.push_back({send, 0, send->len});
    schedule.emissions.push_back(std::move(e));
  }
  return schedule;
}

strategy::SplitResult GreedyBalance::plan_rendezvous(const StrategyContext& ctx,
                                                     std::size_t len) {
  // First idle rail, else the one freeing up soonest.
  RailId best = 0;
  SimTime best_busy = kSimTimeNever;
  for (RailId r = 0; r < ctx.rail_count(); ++r) {
    if (!ctx.rail_usable(r)) continue;
    const SimTime b = ctx.rail_busy_until(r);
    if (b < best_busy) {
      best_busy = b;
      best = r;
    }
  }
  strategy::SplitResult result;
  result.chunks = {{best, 0, len}};
  return result;
}

// ---------------------------------------------------------------------------
// AggregateFastest
// ---------------------------------------------------------------------------

EagerSchedule AggregateFastest::plan_eager(const StrategyContext& ctx,
                                           std::span<const SendRequest* const> pending) {
  EagerSchedule schedule;
  std::size_t total = 0;
  for (const SendRequest* send : pending) total += send->len;

  // Fastest available rail for the aggregate, by sampled prediction.
  RailId best = 0;
  SimTime best_done = kSimTimeNever;
  bool any_idle = false;
  for (RailId r = 0; r < ctx.rail_count(); ++r) {
    if (!ctx.rail_usable(r) || !ctx.nics[r]->idle(ctx.now)) continue;
    any_idle = true;
    const SimTime done = eager_completion(ctx, r, total);
    if (done < best_done) {
      best_done = done;
      best = r;
    }
  }
  if (!any_idle) {  // keep aggregating until a NIC frees up
    schedule.blocked = true;
    return schedule;
  }
  schedule.emissions = pack_onto_rail(ctx, best, pending);
  return schedule;
}

strategy::SplitResult AggregateFastest::plan_rendezvous(const StrategyContext& ctx,
                                                        std::size_t len) {
  std::vector<strategy::ProfileCost> costs;
  const auto rails = solver_rails(ctx, costs, rdv_chunk_table);
  const std::size_t best = strategy::best_single_rail(rails, len);
  strategy::SplitResult result;
  result.chunks = {{rails[best].rail, 0, len}};
  result.makespan = strategy::single_rail_time(rails[best], len);
  return result;
}

// ---------------------------------------------------------------------------
// PatientAggregate
// ---------------------------------------------------------------------------

EagerSchedule PatientAggregate::plan_eager(const StrategyContext& ctx,
                                           std::span<const SendRequest* const> pending) {
  EagerSchedule schedule;
  std::size_t total = 0;
  for (const SendRequest* send : pending) total += send->len;

  // Best predicted completion over every rail, busy offsets included.
  RailId best = 0;
  SimTime best_done = kSimTimeNever;
  for (RailId r = 0; r < ctx.rail_count(); ++r) {
    if (!ctx.rail_usable(r)) continue;
    const SimTime done = eager_completion(ctx, r, total);
    if (done < best_done) {
      best_done = done;
      best = r;
    }
  }
  // "delaying a transfer while some NICs that especially fit the considered
  // transfer are busy": if the winner is busy, wait for it. Another group's
  // winner may be idle, so only a fully busy node blocks the activation.
  if (!ctx.nics[best]->idle(ctx.now)) {
    schedule.blocked = !usable_rail_idle(ctx);
    return schedule;
  }
  schedule.emissions = pack_onto_rail(ctx, best, pending);
  return schedule;
}

// ---------------------------------------------------------------------------
// IsoSplit
// ---------------------------------------------------------------------------

strategy::SplitResult IsoSplit::plan_rendezvous(const StrategyContext& ctx,
                                                std::size_t len) {
  strategy::SplitResult result;
  const std::vector<RailId> rails = usable_rails(ctx);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < rails.size(); ++i) {
    const std::size_t bytes =
        i + 1 < rails.size() ? len / rails.size() : len - offset;
    if (bytes == 0) continue;
    result.chunks.push_back({rails[i], offset, bytes});
    offset += bytes;
  }
  return result;
}

// ---------------------------------------------------------------------------
// FixedRatioSplit
// ---------------------------------------------------------------------------

strategy::SplitResult FixedRatioSplit::plan_rendezvous(const StrategyContext& ctx,
                                                       std::size_t len) {
  // "OpenMPI computes a ratio by comparing the maximum available bandwidth
  // of each network" — size- and state-independent.
  const std::vector<RailId> rails = usable_rails(ctx);
  std::vector<double> bw(rails.size());
  double sum = 0;
  for (std::size_t i = 0; i < rails.size(); ++i) {
    bw[i] = ctx.estimator->profile(rails[i]).rdv_chunk.asymptotic_bandwidth();
    sum += bw[i];
  }
  RAILS_CHECK(sum > 0);
  strategy::SplitResult result;
  std::size_t offset = 0;
  for (std::size_t i = 0; i < rails.size(); ++i) {
    const std::size_t bytes =
        i + 1 < rails.size()
            ? static_cast<std::size_t>(static_cast<double>(len) * bw[i] / sum)
            : len - offset;
    if (bytes == 0) continue;
    result.chunks.push_back({rails[i], offset, bytes});
    offset += bytes;
  }
  return result;
}

// ---------------------------------------------------------------------------
// HeteroSplit
// ---------------------------------------------------------------------------

strategy::SplitResult HeteroSplit::plan_rendezvous(const StrategyContext& ctx,
                                                   std::size_t len) {
  if (ctx.trust_compromised) {
    // Some usable rail's profile is UNTRUSTED (or mid-resample): feeding the
    // equal-finish solver numbers known to be wrong is worse than splitting
    // blind, so fall back to knowledge-free iso weighting until the
    // recalibration layer restores trust.
    IsoSplit iso;
    return iso.plan_rendezvous(ctx, len);
  }
  std::vector<strategy::ProfileCost> costs;
  const auto rails = solver_rails(ctx, costs, rdv_chunk_table);
  return strategy::solve_equal_finish(rails, len);
}

// ---------------------------------------------------------------------------
// MulticoreHeteroSplit
// ---------------------------------------------------------------------------

EagerSchedule MulticoreHeteroSplit::plan_eager(const StrategyContext& ctx,
                                               std::span<const SendRequest* const> pending) {
  // Aggregation remains the right call for batches of tiny packets; the
  // multicore parallel submission targets a single medium eager message
  // (§III-D: "this mechanism appears to be useful to send medium-sized
  // eager messages").
  if (pending.size() != 1 || ctx.rail_count() < 2) {
    return unless_remote_core_idle(ctx, AggregateFastest::plan_eager(ctx, pending));
  }
  const SendRequest* send = pending.front();
  if (send->len < ctx.config->offload.min_split_size) {
    return unless_remote_core_idle(ctx, AggregateFastest::plan_eager(ctx, pending));
  }

  // Cores available for remote submission (the scheduler core is excluded:
  // every chunk is handed to a remote core, Fig. 7).
  const unsigned idle_cores =
      ctx.cores->idle_count(ctx.now, ctx.config->scheduler_core);
  std::vector<strategy::ProfileCost> costs;
  const auto rails = solver_rails(ctx, costs, eager_table);
  const strategy::EagerPlan plan =
      strategy::plan_eager(rails, send->len, idle_cores, ctx.config->offload);

  if (!plan.split) {
    return unless_remote_core_idle(ctx, AggregateFastest::plan_eager(ctx, pending));
  }

  // Assign one distinct idle core per chunk, nearest-first.
  std::vector<CoreId> assigned;
  EagerSchedule schedule;
  for (const strategy::Chunk& chunk : plan.chunks) {
    EagerEmission e;
    e.rail = chunk.rail;
    std::optional<CoreId> exclude;  // pick_offload_core skips `near` itself
    CoreId core = ctx.config->scheduler_core;
    for (CoreId candidate :
         ctx.cores->topology().neighbours_by_distance(ctx.config->scheduler_core)) {
      if (!ctx.cores->idle(candidate, ctx.now)) continue;
      if (std::find(assigned.begin(), assigned.end(), candidate) != assigned.end()) {
        continue;
      }
      core = candidate;
      break;
    }
    (void)exclude;
    RAILS_CHECK_MSG(core != ctx.config->scheduler_core,
                    "offload planned without an idle remote core");
    assigned.push_back(core);
    e.offload_core = core;
    e.pieces.push_back({send, chunk.offset, chunk.bytes});
    schedule.emissions.push_back(std::move(e));
  }
  return schedule;
}

bool MulticoreHeteroSplit::eager_plan_cacheable(
    const StrategyContext& ctx, std::span<const SendRequest* const> pending) const {
  // The delegation cases reduce to AggregateFastest (cacheable); the split
  // case feeds busy offsets into the solver, so it is pure only when every
  // usable rail is idle (offsets all zero). Core choice depends only on the
  // idle-core set, which is part of the engine's cache key.
  if (pending.size() != 1 || ctx.rail_count() < 2) return true;
  if (pending.front()->len < ctx.config->offload.min_split_size) return true;
  return ctx.all_usable_idle();
}

// ---------------------------------------------------------------------------
// BatchSpread
// ---------------------------------------------------------------------------

EagerSchedule BatchSpread::plan_eager(const StrategyContext& ctx,
                                      std::span<const SendRequest* const> pending) {
  // A single message is the multicore-split case; a batch is ours.
  if (pending.size() < 2) return MulticoreHeteroSplit::plan_eager(ctx, pending);

  // Candidate rails: idle ones. Candidate cores: idle remote cores.
  std::vector<RailId> idle_rails;
  for (RailId r = 0; r < ctx.rail_count(); ++r) {
    if (ctx.rail_usable(r) && ctx.nics[r]->idle(ctx.now)) idle_rails.push_back(r);
  }
  std::vector<CoreId> idle_cores;
  for (CoreId c :
       ctx.cores->topology().neighbours_by_distance(ctx.config->scheduler_core)) {
    if (ctx.cores->idle(c, ctx.now)) idle_cores.push_back(c);
  }
  const std::size_t bins =
      std::min({idle_rails.size(), idle_cores.size(), pending.size()});
  if (bins < 2) {
    return unless_remote_core_idle(ctx, AggregateFastest::plan_eager(ctx, pending));
  }

  // Rank the idle rails by eager speed for an average-sized aggregate and
  // keep the `bins` fastest.
  std::size_t total = 0;
  for (const SendRequest* send : pending) total += send->len;
  std::sort(idle_rails.begin(), idle_rails.end(), [&](RailId a, RailId b) {
    return ctx.estimator->duration(a, total / bins, fabric::Protocol::kEager) <
           ctx.estimator->duration(b, total / bins, fabric::Protocol::kEager);
  });
  idle_rails.resize(bins);

  // LPT partition: longest message first onto the bin with the earliest
  // predicted finish (per-rail curves make the bins speed-aware).
  std::vector<const SendRequest*> order(pending.begin(), pending.end());
  std::sort(order.begin(), order.end(),
            [](const SendRequest* a, const SendRequest* b) { return a->len > b->len; });
  std::vector<std::size_t> bin_bytes(bins, 0);
  std::vector<std::vector<const SendRequest*>> bin_sends(bins);
  for (const SendRequest* send : order) {
    std::size_t best = 0;
    SimDuration best_time = kSimTimeNever;
    for (std::size_t b = 0; b < bins; ++b) {
      const SimDuration t = ctx.estimator->duration(
          idle_rails[b], bin_bytes[b] + send->len, fabric::Protocol::kEager);
      if (t < best_time) {
        best_time = t;
        best = b;
      }
    }
    bin_bytes[best] += send->len;
    bin_sends[best].push_back(send);
  }

  // Predict: parallel spread (TO + slowest bin) vs one aggregated segment on
  // the fastest rail from the scheduler core.
  SimDuration spread_time = 0;
  for (std::size_t b = 0; b < bins; ++b) {
    if (bin_sends[b].empty()) continue;
    spread_time = std::max(spread_time, ctx.estimator->duration(
                                            idle_rails[b], bin_bytes[b],
                                            fabric::Protocol::kEager));
  }
  spread_time += ctx.config->offload.signal_cost;
  SimDuration aggregate_time = kSimTimeNever;
  for (RailId r : idle_rails) {
    aggregate_time = std::min(
        aggregate_time, ctx.estimator->duration(r, total, fabric::Protocol::kEager));
  }
  if (aggregate_time <= spread_time) {
    return unless_remote_core_idle(ctx, AggregateFastest::plan_eager(ctx, pending));
  }

  // Emit one aggregated segment per bin, each from its own idle core. The
  // original submission order is preserved inside every bin (LPT only
  // decides placement; ordering within a rail follows the pack list).
  EagerSchedule schedule;
  for (std::size_t b = 0; b < bins; ++b) {
    if (bin_sends[b].empty()) continue;
    std::vector<const SendRequest*> in_order;
    for (const SendRequest* send : pending) {
      if (std::find(bin_sends[b].begin(), bin_sends[b].end(), send) !=
          bin_sends[b].end()) {
        in_order.push_back(send);
      }
    }
    auto emissions = pack_onto_rail(ctx, idle_rails[b],
                                    std::span<const SendRequest* const>(in_order));
    for (auto& e : emissions) {
      e.offload_core = idle_cores[b];
      schedule.emissions.push_back(std::move(e));
    }
  }
  return schedule;
}

bool BatchSpread::eager_plan_cacheable(
    const StrategyContext& ctx, std::span<const SendRequest* const> pending) const {
  // A batch decides via idle rails, idle cores, and estimator durations —
  // all in the cache key. A single message takes the multicore-split path.
  if (pending.size() >= 2) return true;
  return MulticoreHeteroSplit::eager_plan_cacheable(ctx, pending);
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

std::unique_ptr<Strategy> make_strategy(const std::string& name) {
  if (name.rfind("single-rail:", 0) == 0) {
    const RailId rail = static_cast<RailId>(std::stoul(name.substr(12)));
    return std::make_unique<SingleRail>(rail);
  }
  if (name == "greedy-balance") return std::make_unique<GreedyBalance>();
  if (name == "aggregate-fastest") return std::make_unique<AggregateFastest>();
  if (name == "patient-aggregate") return std::make_unique<PatientAggregate>();
  if (name == "iso-split") return std::make_unique<IsoSplit>();
  if (name == "fixed-ratio-split") return std::make_unique<FixedRatioSplit>();
  if (name == "hetero-split") return std::make_unique<HeteroSplit>();
  if (name == "multicore-hetero-split") return std::make_unique<MulticoreHeteroSplit>();
  if (name == "batch-spread") return std::make_unique<BatchSpread>();
  RAILS_CHECK_MSG(false, "unknown strategy name");
  return nullptr;
}

}  // namespace rails::core
