#include "strategy/split_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "perf/profiler.hpp"

namespace rails::strategy {

/// Search ceiling for max_bytes_within: 1 TiB. A degenerate model whose
/// duration curve stays within the budget up to this size gets clamped here
/// instead of the doubling loop running away; no simulated transfer
/// approaches this.
constexpr std::size_t kMaxSearchBytes = std::size_t{1} << 40;

std::size_t ModelCost::max_bytes_within(SimDuration budget) const {
  // Non-positive budgets fit nothing, even under a zero-latency model whose
  // duration(0) == 0 (without this, the doubling loop below would climb all
  // the way to the clamp and report ~1 TiB for an empty budget).
  if (budget <= 0) return 0;
  if (budget < duration(0)) return 0;
  std::size_t lo = 0;
  std::size_t hi = 1;
  while (duration(hi) <= budget && hi < kMaxSearchBytes) hi <<= 1;
  if (duration(hi) <= budget) return hi;  // clamped at kMaxSearchBytes
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    if (duration(mid) <= budget) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

namespace {

SimTime finish(const SolverRail& r, std::size_t bytes) {
  return r.ready_offset + r.cost->duration(bytes);
}

/// Turns the per-rail byte counts in `result.chunks` into the result, in
/// place: keeps non-empty chunks, assigns consecutive offsets, and computes
/// makespan and imbalance from the rails actually used.
void finalize(SplitResult& result, std::span<const SolverRail> rails, unsigned iterations) {
  result.iterations = iterations;
  result.makespan = 0;
  result.finish_times.clear();
  SimDuration earliest = std::numeric_limits<SimDuration>::max();
  std::size_t offset = 0;
  std::size_t kept = 0;
  bool several_rails = false;
  for (const Chunk& c : result.chunks) {
    if (c.bytes == 0) continue;
    const SolverRail* rail = nullptr;
    for (const auto& r : rails) {
      if (r.rail == c.rail) rail = &r;
    }
    RAILS_CHECK(rail != nullptr);
    const SimDuration f = finish(*rail, c.bytes);
    result.makespan = std::max(result.makespan, f);
    earliest = std::min(earliest, f);
    several_rails = several_rails || (kept > 0 && c.rail != result.chunks[0].rail);
    result.chunks[kept++] = {c.rail, offset, c.bytes};
    offset += c.bytes;
    result.finish_times.push_back(f);
  }
  result.chunks.resize(kept);
  // Imbalance is a cross-rail quantity: when pruning zero-byte chunks leaves
  // everything on one rail, there is nothing to be imbalanced against.
  result.imbalance = several_rails ? result.makespan - earliest : 0;
}

}  // namespace

SimDuration single_rail_time(const SolverRail& rail, std::size_t total) {
  return finish(rail, total);
}

std::size_t best_single_rail(std::span<const SolverRail> rails, std::size_t total) {
  RAILS_CHECK(!rails.empty());
  std::size_t best = 0;
  SimDuration best_time = finish(rails[0], total);
  for (std::size_t i = 1; i < rails.size(); ++i) {
    const SimDuration t = finish(rails[i], total);
    if (t < best_time) {
      best_time = t;
      best = i;
    }
  }
  return best;
}

SplitResult dichotomy_split(const SolverRail& a, const SolverRail& b, std::size_t total,
                            const DichotomyConfig& config) {
  RAILS_PERF_SCOPE(perf::Layer::kStrategy);
  RAILS_CHECK(total > 0);
  const SolverRail rails_arr[2] = {a, b};
  const std::span<const SolverRail> rails(rails_arr, 2);

  // "The algorithm begins by splitting the packets in two chunks of equal
  // size" — then bisects the ratio until both finish times are equivalent.
  double lo = 0.0;
  double hi = 1.0;
  double ratio = 0.5;
  std::size_t bytes_a = total / 2;
  unsigned used = 0;
  for (unsigned it = 0; it < config.max_iterations; ++it) {
    ++used;
    bytes_a = static_cast<std::size_t>(std::llround(ratio * static_cast<double>(total)));
    bytes_a = std::min(bytes_a, total);
    const SimTime ta = finish(a, bytes_a);
    const SimTime tb = finish(b, total - bytes_a);
    const SimDuration diff = ta > tb ? ta - tb : tb - ta;
    if (diff <= config.tolerance) break;
    if (ta > tb) {
      hi = ratio;  // rail a is the straggler: shrink its share
    } else {
      lo = ratio;
    }
    ratio = (lo + hi) / 2.0;
  }

  SplitResult result;
  result.chunks = {{a.rail, 0, bytes_a}, {b.rail, 0, total - bytes_a}};
  finalize(result, rails, used);
  return result;
}

SplitResult solve_equal_finish(std::span<const SolverRail> rails, std::size_t total) {
  SplitResult result;
  solve_equal_finish(rails, total, result);
  return result;
}

void solve_equal_finish(std::span<const SolverRail> rails, std::size_t total,
                        SplitResult& out) {
  RAILS_PERF_SCOPE(perf::Layer::kStrategy);
  RAILS_CHECK(!rails.empty());
  RAILS_CHECK(total > 0);

  auto capacity = [&](SimTime deadline) {
    std::size_t cap = 0;
    for (const auto& r : rails) {
      if (deadline <= r.ready_offset) continue;
      cap += r.cost->max_bytes_within(deadline - r.ready_offset);
    }
    return cap;
  };

  // Upper bound: the best single rail can always carry everything.
  SimTime hi = finish(rails[best_single_rail(rails, total)], total);
  SimTime lo = 0;
  RAILS_CHECK(capacity(hi) >= total);

  unsigned iterations = 0;
  while (hi - lo > 1) {
    ++iterations;
    const SimTime mid = lo + (hi - lo) / 2;
    if (capacity(mid) >= total) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  const SimTime deadline = hi;

  // Allocate each rail's capacity at the optimal deadline, then trim the
  // surplus (capacity(deadline) may exceed `total` by quantisation) from the
  // largest chunks first: removing bytes only lowers a rail's finish time.
  out.chunks.clear();
  out.chunks.reserve(rails.size());
  std::size_t allocated = 0;
  for (const auto& r : rails) {
    std::size_t bytes = 0;
    if (deadline > r.ready_offset) bytes = r.cost->max_bytes_within(deadline - r.ready_offset);
    bytes = std::min(bytes, total - allocated);
    allocated += bytes;
    out.chunks.push_back({r.rail, 0, bytes});
  }
  RAILS_CHECK_MSG(allocated == total, "equal-finish solver under-allocated");
  finalize(out, rails, iterations);
}

}  // namespace rails::strategy
