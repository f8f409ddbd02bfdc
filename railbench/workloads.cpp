// The four workloads. Each builds its inputs from the seed alone, pushes
// them through fresh Worlds via the Runner, checks every delivery byte for
// byte, and reports virtual-clock metrics plus the layer counts read from
// the program's public accessors. README.md explains why each exists.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>

#include "core/strategies.hpp"
#include "fabric/presets.hpp"
#include "railbench.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prediction.hpp"
#include "topo/topology.hpp"

namespace railbench {
namespace {

// ------------------------------------------------------------ generation

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : g_(seed) {}
  double uniform() { return static_cast<double>(g_() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return g_() % n; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::mt19937_64 g_;
};

/// Independent stream per (seed, purpose).
Rng stream(std::uint64_t seed, std::uint64_t purpose) {
  return Rng(seed * 0x9e3779b97f4a7c15ULL + purpose * 0xbf58476d1ce4e5b9ULL + 1);
}

// Inputs are stratified: draw i lands in the i-th of n equal-probability
// strata of its distribution, and the draws are then shuffled. Every seed
// thus sees the same distribution almost exactly but a different sequence,
// so seed-to-seed spread of the virtual metrics stays far below the bounds
// while no two seeds present the same inputs.

std::vector<std::size_t> log_uniform_sizes(std::size_t n, std::size_t lo, std::size_t hi,
                                           Rng& rng) {
  std::vector<std::size_t> out(n);
  const double span = std::log(static_cast<double>(hi) / static_cast<double>(lo));
  for (std::size_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + rng.uniform()) / static_cast<double>(n);
    out[i] = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::llround(static_cast<double>(lo) * std::exp(u * span))),
        lo, hi);
  }
  rng.shuffle(out);
  return out;
}

/// Exponential inter-arrival gaps (ns) with the given mean.
std::vector<SimDuration> exponential_gaps(std::size_t n, double mean_ns, Rng& rng) {
  std::vector<SimDuration> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + rng.uniform()) / static_cast<double>(n);
    out[i] = static_cast<SimDuration>(std::llround(-mean_ns * std::log1p(-u)));
  }
  rng.shuffle(out);
  return out;
}

/// Seeded payload source: message i carries pattern[offset_i, offset_i+len).
constexpr std::size_t kPatternSlack = 64_KiB;
struct Pattern {
  std::vector<std::uint8_t> bytes;
  Pattern(std::size_t max_len, Rng& rng) : bytes(max_len + kPatternSlack) {
    for (std::size_t i = 0; i < bytes.size(); i += 8) {
      std::uint64_t w = rng.below(~0ULL);
      std::memcpy(&bytes[i], &w, std::min<std::size_t>(8, bytes.size() - i));
    }
  }
  const std::uint8_t* at(std::size_t offset) const { return bytes.data() + offset; }
};

// ------------------------------------------------------------ accounting

/// Fastest idle-rail transfer time the estimator predicts for `len` bytes:
/// the floor under any latency, so latency minus it is time spent waiting.
double min_duration_us(core::World& w, std::size_t len) {
  const fabric::Protocol proto = len > w.engine(0).rdv_threshold()
                                     ? fabric::Protocol::kRendezvous
                                     : fabric::Protocol::kEager;
  SimDuration best = kSimTimeNever;
  for (RailId r = 0; r < w.estimator().rail_count(); ++r) {
    best = std::min(best, w.estimator().duration(r, len, proto));
  }
  return to_usec(best);
}

/// Per-message outcome bookkeeping for one pass.
struct Tally {
  std::uint64_t attempted = 0, ok = 0, failed = 0, rejected = 0, nonterminal = 0, corrupt = 0;
  std::uint64_t payload_ok = 0;
  std::vector<double> lat_us;
  std::vector<double> wait_us;

  /// Reserves room for n samples and touches it, so those pages are
  /// resident before MemProbe::mark() and do not count as program memory.
  void reserve(std::size_t n) {
    lat_us.assign(n, 0.0);
    lat_us.clear();
    wait_us.assign(n, 0.0);
    wait_us.clear();
  }

  /// Classifies one message once the queue can no longer move it, and
  /// byte-compares the delivery. Returns the receive completion time, or
  /// -1 when the message was not delivered intact.
  SimTime account(core::World& w, const core::SendHandle& s, const core::RecvHandle& r,
                  const std::uint8_t* expect, std::size_t len, SimTime due, bool sample) {
    ++attempted;
    if (s->rejected()) {
      ++rejected;
      return -1;
    }
    if (s->failed()) {
      ++failed;
      return -1;
    }
    if (!s->done() || !r->done()) {
      ++nonterminal;
      return -1;
    }
    if (r->bytes_received != len || std::memcmp(r->data, expect, len) != 0) {
      ++corrupt;
      return -1;
    }
    ++ok;
    payload_ok += len;
    if (sample) {
      const double lat = to_usec(r->complete_time - due);
      lat_us.push_back(lat);
      wait_us.push_back(lat - min_duration_us(w, len));
    }
    return r->complete_time;
  }
  std::uint64_t not_ok() const { return failed + rejected + nonterminal + corrupt; }
};

/// Counts read from the program's public accessors, summed over every
/// World of a pass.
struct Counts {
  std::uint64_t eager_msgs = 0, rdv_msgs = 0, eager_segments = 0,
                aggregated_packets = 0, offloaded_chunks = 0, rdv_chunks = 0,
                rel_segments = 0, rel_retransmits = 0, rel_acks = 0, rel_inferred = 0,
                quarantines = 0, qos_grants = 0, qos_stream_chunks = 0, cache_hits = 0,
                cache_misses = 0, events = 0, shard_switches = 0, handler_spills = 0,
                forwarded = 0, segments = 0, silent_drops = 0, pending_max = 0,
                qos_depth_max = 0, generator_events = 0, steady_allocs = 0, steady_msgs = 0;
  std::uint32_t shards = 0;
  std::uint64_t rail_payload[2] = {0, 0};
  double hops_sum = 0.0;

  void add(core::World& w, const Runner& d) {
    fabric::Fabric& fab = w.fabric();
    for (NodeId n = 0; n < fab.node_count(); ++n) {
      const core::Engine& e = w.engine(n);
      const core::EngineStats& st = e.stats();
      eager_msgs += st.eager_msgs;
      rdv_msgs += st.rdv_msgs;
      eager_segments += st.eager_segments;
      aggregated_packets += st.aggregated_packets;
      offloaded_chunks += st.offloaded_chunks;
      rdv_chunks += st.rdv_chunks;
      rel_segments += st.rel_segments;
      rel_retransmits += st.rel_retransmits;
      rel_acks += st.rel_acks;
      rel_inferred += st.rel_drops_inferred;
      quarantines += st.quarantines;
      qos_grants += st.qos_grants;
      qos_stream_chunks += st.qos_stream_chunks;
      cache_hits += st.strategy_cache_hits;
      cache_misses += st.strategy_cache_misses;
      if (const qos::QosArbiter* q = e.qos()) {
        for (qos::ClassId c = 0; c < q->class_count(); ++c) {
          qos_depth_max = std::max(qos_depth_max, q->counters(c).depth_hwm);
        }
      }
      for (RailId r = 0; r < fab.rail_count(); ++r) {
        segments += fab.nic(n, r).segments_sent();
        silent_drops += fab.nic(n, r).segments_silently_dropped();
      }
    }
    for (RailId r = 0; r < fab.rail_count() && r < 2; ++r) rail_payload[r] += fab.delivered_payload(r);
    fabric::EventQueue& q = fab.events();
    events += q.processed();
    shard_switches += q.shard_switches();
    handler_spills += q.handler_spills();
    shards = std::max(shards, q.shard_count());
    forwarded += fab.forwarded_segments();
    pending_max = std::max<std::uint64_t>(pending_max, d.pending_max);
    generator_events += d.generator_events;
    steady_allocs += d.steady_allocs();
    steady_msgs += d.steady_msgs;
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

/// Virtual-clock end-to-end metrics of one workload.
struct Virt {
  double p50_us = 0, p99_us = 0, msg_rate_per_ms = 0, goodput_mbps = 0, completion_us = 0,
         sustained_mbps = 0;
};

/// Fills everything a pass reports once its Worlds are done.
void finish(PassResult& out, const Virt& v, const Counts& c, const Tally& t,
            std::uint64_t messages) {
  auto& x = out.exact;
  x["virt_latency_p50_us"] = v.p50_us;
  x["virt_latency_p99_us"] = v.p99_us;
  x["virt_latency_samples"] = static_cast<double>(t.lat_us.size());
  x["virt_msg_rate_per_ms"] = v.msg_rate_per_ms;
  x["virt_goodput_mbps"] = v.goodput_mbps;
  x["virt_completion_us"] = v.completion_us;
  x["virt_sustained_mbps"] = v.sustained_mbps;

  const auto msgs = static_cast<double>(messages);
  x["failed_frac"] = ratio(t.not_ok(), t.attempted);
  x["core.msgs_per_eager_segment"] = ratio(c.eager_msgs, c.eager_segments);
  x["core.offloaded_chunks_per_msg"] = ratio(static_cast<double>(c.offloaded_chunks), msgs);
  x["core.virt_wait_p99_us"] = percentile(t.wait_us, 99.0);
  x["core.rel.retransmits_per_segment"] = ratio(c.rel_retransmits, c.rel_segments);
  x["core.rel.acks_per_segment"] = ratio(c.rel_acks, c.rel_segments);
  x["core.rel.inferred_per_real_drop"] = ratio(c.rel_inferred, c.silent_drops);
  x["core.quarantines"] = static_cast<double>(c.quarantines);
  x["strategy.cache_hit_ratio"] = ratio(c.cache_hits, c.cache_hits + c.cache_misses);
  x["qos.grants_per_msg"] = ratio(static_cast<double>(c.qos_grants), msgs);
  x["qos.stream_chunks"] = static_cast<double>(c.qos_stream_chunks);
  x["qos.depth_max"] = static_cast<double>(c.qos_depth_max);
  x["fabric.events_per_msg"] =
      ratio(static_cast<double>(c.events - c.generator_events), msgs);
  x["fabric.pending_max"] = static_cast<double>(c.pending_max);
  x["fabric.shard_switches_per_event"] = ratio(c.shard_switches, c.events);
  x["fabric.handler_spills"] = static_cast<double>(c.handler_spills);
  x["fabric.rail_byte_share.r0"] = ratio(c.rail_payload[0], c.rail_payload[0] + c.rail_payload[1]);
  x["fabric.segments_per_msg"] = ratio(static_cast<double>(c.segments), msgs);
  x["topo.forwarded_per_msg"] = ratio(static_cast<double>(c.forwarded), msgs);
  x["topo.mean_hops"] = ratio(c.hops_sum, msgs);
  // Raw counts behind the ratios, so a pass-to-pass mismatch names them.
  x["count.events"] = static_cast<double>(c.events);
  x["count.segments"] = static_cast<double>(c.segments);
  x["count.silent_drops"] = static_cast<double>(c.silent_drops);
  x["count.rel_inferred"] = static_cast<double>(c.rel_inferred);
  out.allocs_per_msg = ratio(c.steady_allocs, c.steady_msgs);
  x["count.failed"] = static_cast<double>(t.failed);
  x["count.rejected"] = static_cast<double>(t.rejected);
  x["count.nonterminal"] = static_cast<double>(t.nonterminal);
  x["count.corrupt"] = static_cast<double>(t.corrupt);

  out.attempted = t.attempted;
  out.failed = t.not_ok();
  out.messages = messages;
  if (c.handler_spills != 0) out.check_failures.emplace_back("fabric.handler_spills == 0");
}

/// What the host-clock figures of a pass are made of.
void host_rates(PassResult& out, const Tally& t, double drive_seconds) {
  out.drive_seconds = drive_seconds;
  out.delivered_msgs = t.ok;
  out.delivered_bytes = t.payload_ok;
}

void check(PassResult& out, bool ok, const char* what) {
  if (!ok) out.check_failures.emplace_back(what);
}

/// Folds one World's resident-memory growth into the pass's peak.
void record_peak(PassResult& out, const MemProbe& mem) {
  const double mb = mem.peak_growth_mb();
  check(out, !std::isnan(mb), "resident memory readable from /proc/self");
  if (!std::isnan(mb)) out.peak_mb = std::max(out.peak_mb, mb);
}

/// sampling.pred_abs_err_mean_pct: traced passes attach a prediction
/// tracker (public Engine hook) and report its mean |error| over all rails.
void report_predictions(PassResult& out, const telemetry::PredictionTracker& tracker) {
  double weighted = 0.0;
  double samples = 0.0;
  for (RailId r = 0; r < tracker.rail_count(); ++r) {
    const auto acc = tracker.accuracy(r);
    weighted += acc.mean_rel_error * static_cast<double>(acc.samples);
    samples += static_cast<double>(acc.samples);
  }
  out.traced_exact["sampling.pred_abs_err_mean_pct"] = ratio(weighted, samples) * 100.0;
}

/// Reusable receive arena: grows once, then every pass writes into the same
/// pages.
std::uint8_t* arena(std::size_t bytes) {
  static std::vector<std::uint8_t> a;
  if (a.size() < bytes) a.resize(bytes);
  return a.data();
}

std::unique_ptr<core::World> build(core::WorldConfig cfg, const PassOptions& opt,
                                   PassResult& out) {
  double seconds = 0.0;
  auto w = build_world(std::move(cfg), opt.rec, &seconds);
  out.setup_seconds.push_back(seconds);
  return w;
}

// ------------------------------------------------------------- generator

/// One message of a workload's input.
struct Msg {
  NodeId src = 0;
  NodeId dst = 1;
  std::size_t len = 0;
  std::size_t pattern_off = 0;  ///< payload = pattern[pattern_off, +len)
  std::size_t rx_off = 0;       ///< receive buffer = rx arena + rx_off
  SimTime due = 0;              ///< relative to the batch's origin
};

/// Posts a batch of messages at their due times through events on the
/// World's own queue, one event armed ahead at a time: each event posts the
/// message's receive, then its send. These are the generator events that
/// fabric.events_per_msg leaves out.
class Arrivals {
 public:
  Arrivals(Runner& d, core::World& w, const Pattern& pattern, std::uint8_t* rx,
           std::vector<core::SendHandle>& sends, std::vector<core::RecvHandle>& recvs)
      : d_(d), w_(w), pattern_(pattern), rx_(rx), sends_(sends), recvs_(recvs) {}

  /// Schedules msgs[first, last) at origin + due; handle slot = index -
  /// first; message id = index + 1 + id_base. The steady-state allocation
  /// window opens at message `steady_from`.
  void schedule(const std::vector<Msg>& msgs, std::size_t first, std::size_t last,
                SimTime origin, std::size_t steady_from, std::uint64_t id_base = 0) {
    msgs_ = &msgs;
    first_ = next_ = first;
    last_ = last;
    origin_ = origin;
    steady_from_ = steady_from;
    id_base_ = id_base;
    if (next_ < last_) arm();
  }

 private:
  void fire() {
    d_.generator_fired();
    const std::size_t i = next_++;
    const Msg& m = (*msgs_)[i];
    if (i == steady_from_) d_.steady_begin();
    if (i >= steady_from_) ++d_.steady_msgs;
    const std::uint64_t id = id_base_ + i + 1;
    recvs_[i - first_] = d_.irecv(m.dst, m.src, id, rx_ + m.rx_off, m.len, id);
    sends_[i - first_] = d_.isend(m.src, m.dst, id, pattern_.at(m.pattern_off), m.len, id);
    if (next_ < last_) arm();
  }
  void arm() {
    ++d_.generator_events;
    w_.fabric().events().at(origin_ + (*msgs_)[next_].due, [this] { fire(); });
  }

  Runner& d_;
  core::World& w_;
  const Pattern& pattern_;
  std::uint8_t* rx_;
  std::vector<core::SendHandle>& sends_;
  std::vector<core::RecvHandle>& recvs_;
  const std::vector<Msg>* msgs_ = nullptr;
  std::size_t first_ = 0, next_ = 0, last_ = 0, steady_from_ = 0;
  SimTime origin_ = 0;
  std::uint64_t id_base_ = 0;
};

/// Byte-compares and classifies messages [first, last) of a drained batch,
/// then drops their handles. Returns the latest intact delivery time.
SimTime settle(Tally& t, core::World& w, const Pattern& pattern, const std::vector<Msg>& msgs,
               std::size_t first, std::size_t last, SimTime origin,
               std::vector<core::SendHandle>& sends, std::vector<core::RecvHandle>& recvs,
               std::size_t sample_max_len = ~std::size_t{0}) {
  SimTime end = origin;
  for (std::size_t i = first; i < last; ++i) {
    const Msg& m = msgs[i];
    end = std::max(end, t.account(w, sends[i - first], recvs[i - first],
                                  pattern.at(m.pattern_off), m.len, origin + m.due,
                                  m.len <= sample_max_len));
    sends[i - first] = core::SendHandle();
    recvs[i - first] = core::RecvHandle();
  }
  return end;
}

// ------------------------------------------------------------ eager_burst

constexpr unsigned kBurstRounds = 2000;
constexpr unsigned kBurst = 64;

core::WorldConfig eager_burst_config(std::uint64_t) {
  return core::paper_testbed("multicore-hetero-split");
}

PassResult run_eager_burst(const PassOptions& opt) {
  PassResult out;
  const std::size_t n = std::size_t{kBurstRounds} * kBurst;
  Rng rng = stream(opt.seed, 1);
  const auto sizes = log_uniform_sizes(n, 8, 8_KiB, rng);
  std::vector<Msg> msgs(n);
  for (std::size_t i = 0; i < n; ++i) {
    msgs[i].len = sizes[i];
    msgs[i].pattern_off = rng.below(kPatternSlack);
    msgs[i].rx_off = (i % kBurst) * 8_KiB;
  }
  const Pattern pattern(8_KiB, rng);
  std::uint8_t* rx = arena(kBurst * 8_KiB);
  Tally t;
  t.reserve(n);

  MemProbe mem;
  mem.mark();
  auto world = build(eager_burst_config(opt.seed), opt, out);
  telemetry::PredictionTracker tracker(world->fabric().rail_count());
  if (opt.rec != nullptr) {
    for (NodeId nd = 0; nd < 2; ++nd) world->engine(nd).set_prediction_tracker(&tracker);
  }
  Runner d(*world, opt.rec);
  std::vector<core::SendHandle> sends(kBurst);
  std::vector<core::RecvHandle> recvs(kBurst);
  Arrivals gen(d, *world, pattern, rx, sends, recvs);
  SimDuration busy = 0;
  // Each message of a burst is posted from its own event at the round's
  // start, so the scheduler may run between posts. Posting all 64 from one
  // call completes most of them at one instant (the end of a full aggregate
  // segment), and the p50 is then the same for every seed.
  for (std::size_t first = 0; first < n; first += kBurst) {
    d.start();
    const SimTime origin = world->now();
    gen.schedule(msgs, first, first + kBurst, origin, n / 8);
    d.drain();
    d.stop();
    busy += settle(t, *world, pattern, msgs, first, first + kBurst, origin, sends, recvs) -
            origin;
  }
  d.steady_end();
  record_peak(out, mem);

  Counts c;
  c.add(*world, d);
  c.hops_sum = static_cast<double>(n);
  Virt v;
  v.p50_us = percentile(t.lat_us, 50.0);
  v.p99_us = percentile(t.lat_us, 99.0);
  v.msg_rate_per_ms = static_cast<double>(t.ok) / (to_usec(busy) / 1000.0);
  v.goodput_mbps = mbps(t.payload_ok, busy);
  v.completion_us = to_usec(busy) / kBurstRounds;
  v.sustained_mbps = v.goodput_mbps;  // closed loop: offered == delivered
  finish(out, v, c, t, n);
  host_rates(out, t, d.drive_seconds());
  if (opt.rec != nullptr) report_predictions(out, tracker);

  check(out, c.rdv_msgs == 0, "eager_burst: rdv_msgs == 0");
  check(out, c.aggregated_packets > 0, "eager_burst: aggregated_packets > 0");
  check(out, c.qos_grants == 0, "eager_burst: QoS bypassed (qos_grants == 0)");
  check(out, c.rel_segments == 0, "eager_burst: reliability bypassed (rel_segments == 0)");
  check(out, c.forwarded == 0, "eager_burst: topology bypassed (forwarded == 0)");
  return out;
}

// ------------------------------------------------------------- bulk_split

constexpr unsigned kBulkMsgs = 2000;
constexpr unsigned kBulkWindow = 4;

core::WorldConfig bulk_split_config(std::uint64_t) {
  return core::paper_testbed("hetero-split");
}

PassResult run_bulk_split(const PassOptions& opt) {
  PassResult out;
  const std::size_t n = kBulkMsgs;
  Rng rng = stream(opt.seed, 2);
  const auto sizes = log_uniform_sizes(n, 64_KiB, 16_MiB, rng);
  std::vector<std::size_t> offsets(n);
  for (auto& o : offsets) o = rng.below(kPatternSlack);
  const Pattern pattern(16_MiB, rng);
  std::uint8_t* rx = arena(kBulkWindow * 16_MiB);
  Tally t;
  t.reserve(n);

  MemProbe mem;
  mem.mark();
  auto world = build(bulk_split_config(opt.seed), opt, out);
  telemetry::PredictionTracker tracker(world->fabric().rail_count());
  if (opt.rec != nullptr) {
    for (NodeId nd = 0; nd < 2; ++nd) world->engine(nd).set_prediction_tracker(&tracker);
  }
  Runner d(*world, opt.rec);
  std::vector<core::SendHandle> sends(kBulkWindow);
  std::vector<core::RecvHandle> recvs(kBulkWindow);
  std::vector<std::size_t> slot_msg(kBulkWindow);
  std::vector<bool> busy_slot(kBulkWindow, false);
  std::size_t next = 0;
  unsigned active = 0;
  SimTime last = 0;

  // Closed loop: a slot submits its next message as soon as the previous
  // one has been received.
  const auto submit = [&](unsigned slot) {
    const std::size_t m = next++;
    if (m == n / 8) d.steady_begin();
    if (m >= n / 8) ++d.steady_msgs;
    slot_msg[slot] = m;
    recvs[slot] = d.irecv(1, 0, m + 1, rx + slot * 16_MiB, sizes[m], m + 1);
    sends[slot] = d.isend(0, 1, m + 1, pattern.at(offsets[m]), sizes[m], m + 1);
    busy_slot[slot] = true;
    ++active;
  };
  const auto retire = [&](unsigned slot) {
    const std::size_t m = slot_msg[slot];
    d.stop();
    last = std::max(last, t.account(*world, sends[slot], recvs[slot], pattern.at(offsets[m]),
                                    sizes[m], sends[slot]->submit_time, true));
    sends[slot] = core::SendHandle();
    recvs[slot] = core::RecvHandle();
    d.start();
    busy_slot[slot] = false;
    --active;
  };

  d.start();
  for (unsigned s = 0; s < kBulkWindow; ++s) submit(s);
  while (active > 0) {
    const bool moved = d.step();
    for (unsigned s = 0; s < kBulkWindow; ++s) {
      if (!busy_slot[s]) continue;
      const bool settled = recvs[s]->done() && (sends[s]->done() || sends[s]->failed());
      if (!settled && moved) continue;
      retire(s);  // complete, or hung with the queue empty
      if (moved && next < n) submit(s);
    }
    if (!moved) break;
  }
  d.stop();
  d.steady_end();
  record_peak(out, mem);

  Counts c;
  c.add(*world, d);
  c.hops_sum = static_cast<double>(n);
  Virt v;
  v.p50_us = percentile(t.lat_us, 50.0);
  v.p99_us = percentile(t.lat_us, 99.0);
  v.msg_rate_per_ms = static_cast<double>(t.ok) / (to_usec(last) / 1000.0);
  v.goodput_mbps = mbps(t.payload_ok, last);
  v.completion_us = to_usec(last) * kBulkWindow / static_cast<double>(n);
  v.sustained_mbps = v.goodput_mbps;  // closed loop: offered == delivered
  finish(out, v, c, t, n);
  host_rates(out, t, d.drive_seconds());
  if (opt.rec != nullptr) report_predictions(out, tracker);

  check(out, c.rdv_chunks > 0, "bulk_split: rdv_chunks > 0");
  check(out, c.rail_payload[0] > 0 && c.rail_payload[1] > 0,
        "bulk_split: rendezvous payload on both rails");
  check(out, c.qos_grants == 0, "bulk_split: QoS bypassed (qos_grants == 0)");
  check(out, c.rel_segments == 0, "bulk_split: reliability bypassed (rel_segments == 0)");
  check(out, c.forwarded == 0, "bulk_split: topology bypassed (forwarded == 0)");
  return out;
}

// --------------------------------------------------------- mixed_reliable

/// Offered payload rates of the open-loop ladder (MB/s). This mix saturates
/// the testbed at about 1,700 MB/s: the rungs are 100 MB/s apart around
/// that knee, and the top steps are past saturation on purpose, so that
/// overload, and what the reliability layer does under it, count.
constexpr double kLadderMbps[] = {250, 500, 1000, 1500, 1600, 1700, 1800, 1900, 2000, 2500};
constexpr std::size_t kReferenceStep = 2;  ///< 1000 MB/s (~31 us mean gap)
constexpr unsigned kStepMsgs = 2000;
/// The reference step carries the reported latencies, so it runs longer.
constexpr unsigned kReferenceMsgs = 8000;
constexpr double kBulkShare = 0.01;
/// Small-message p99 limit behind virt_sustained_mbps (also stated in the
/// workload's `why` in BENCHMARK.json).
constexpr double kP99LimitUs = 1000.0;
/// A step whose last delivery lands later than this share of its arrival
/// window after the last arrival has a growing backlog.
constexpr double kMaxDrainFrac = 0.1;

core::WorldConfig mixed_reliable_config(std::uint64_t seed, std::size_t step,
                                        std::uint64_t variant) {
  core::WorldConfig cfg = core::paper_testbed("multicore-hetero-split");
  cfg.engine.qos.enabled = true;
  cfg.engine.reliability.enabled = true;
  cfg.engine.timeseries.enabled = true;
  for (RailId r = 0; r < 2; ++r) {
    fabric::FabricConfig::RailFault f;
    f.rail = r;
    f.spec.kind = fabric::FaultKind::kDrop;
    f.spec.rate = 0.01;
    cfg.fabric.faults.push_back(f);
  }
  cfg.fabric.fault_seed = seed * 1000 + step + variant * 0x9e3779b97f4a7c15ULL;
  return cfg;
}

core::WorldConfig mixed_reliable_config(std::uint64_t seed) {
  return mixed_reliable_config(seed, 0, 0);
}

struct StepResult {
  double offered_mbps = 0, p50_us = 0, p99_us = 0, goodput_mbps = 0, msg_rate_per_ms = 0,
         span_us = 0, drain_frac = 0;
  std::uint64_t not_ok = 0, events = 0, quarantines = 0;
  bool growing = false;
};

/// One ladder step's input: 99% small messages sized from Fig. 9's powers
/// of two (8 B - 32 KiB), 1% bulk of 1-4 MiB (beyond the 256 KiB QoS stream
/// window, so the arbiter streams them), exponential arrivals at `mbps`.
std::vector<Msg> ladder_inputs(std::size_t n, double offered_mbps, Rng& rng) {
  // One bulk message per block of 1/kBulkShare arrivals, at a random place
  // in the block (stratified like every other input).
  const auto bulk_n = static_cast<std::size_t>(std::llround(kBulkShare * static_cast<double>(n)));
  const std::size_t block = n / bulk_n;
  const auto bulk = log_uniform_sizes(bulk_n, 1_MiB, 4_MiB, rng);
  std::vector<std::size_t> small(n - bulk_n);
  for (std::size_t i = 0; i < small.size(); ++i) {
    const double u = (static_cast<double>(i) + rng.uniform()) / static_cast<double>(small.size());
    small[i] = std::size_t{8} << static_cast<unsigned>(u * 13.0);
  }
  rng.shuffle(small);
  std::vector<Msg> msgs(n);
  std::size_t total = 0;
  for (std::size_t b = 0, k = 0; b < bulk_n; ++b) {
    const std::size_t at = rng.below(block);
    for (std::size_t j = 0; j < block; ++j) {
      Msg& m = msgs[b * block + j];
      m.len = j == at ? bulk[b] : small[k++];
      m.pattern_off = rng.below(kPatternSlack);
      m.rx_off = total;
      total += m.len;
    }
  }
  const double mean_gap_ns = static_cast<double>(total) / static_cast<double>(n) / offered_mbps * 1e3;
  const auto gaps = exponential_gaps(n, mean_gap_ns, rng);
  SimTime at = 0;
  for (std::size_t i = 0; i < n; ++i) msgs[i].due = at += gaps[i];
  return msgs;
}

PassResult run_mixed_reliable(const PassOptions& opt) {
  PassResult out;
  Counts c;
  Tally all;
  std::vector<StepResult> steps;
  Virt v;
  std::vector<core::SendHandle> sends(kReferenceMsgs);
  std::vector<core::RecvHandle> recvs(kReferenceMsgs);
  telemetry::PredictionTracker tracker(2);
  Rng pattern_rng = stream(opt.seed, 99);
  const Pattern pattern(4_MiB, pattern_rng);

  for (std::size_t step = 0; step < std::size(kLadderMbps); ++step) {
    const std::size_t n = step == kReferenceStep ? kReferenceMsgs : kStepMsgs;
    Rng rng = stream(opt.seed, 100 + step);
    const std::vector<Msg> msgs = ladder_inputs(n, kLadderMbps[step], rng);
    std::uint8_t* rx = arena(msgs.back().rx_off + msgs.back().len);

    MemProbe mem;
    mem.mark();
    telemetry::MetricsRegistry registry;
    auto world = build(mixed_reliable_config(opt.seed, step, opt.variant), opt, out);
    for (NodeId nd = 0; nd < 2; ++nd) {
      world->engine(nd).set_metrics(&registry);
      if (opt.rec != nullptr) world->engine(nd).set_prediction_tracker(&tracker);
    }
    Runner d(*world, opt.rec);
    Arrivals gen(d, *world, pattern, rx, sends, recvs);
    d.start();
    gen.schedule(msgs, 0, n, 0, n / 8, step * kReferenceMsgs);
    d.drain();
    d.stop();
    d.steady_end();
    record_peak(out, mem);
    out.drive_seconds += d.drive_seconds();

    Tally t;
    t.reserve(n);
    const SimTime last = settle(t, *world, pattern, msgs, 0, n, 0, sends, recvs, 32_KiB);
    c.add(*world, d);
    c.hops_sum += static_cast<double>(n);

    // The backlog grows when the engine falls behind the offered rate; the
    // time it then needs to drain after the last arrival grows with the
    // arrival window. Below saturation it is one message's latency.
    const SimTime first_due = msgs.front().due;
    const SimTime window = msgs.back().due - first_due;
    std::size_t total = 0;
    for (const Msg& m : msgs) total += m.len;
    StepResult sr;
    sr.events = world->fabric().events().processed();
    for (NodeId nd = 0; nd < 2; ++nd) sr.quarantines += world->engine(nd).stats().quarantines;
    sr.offered_mbps = mbps(total, window);
    sr.p50_us = percentile(t.lat_us, 50.0);
    sr.p99_us = percentile(t.lat_us, 99.0);
    sr.span_us = to_usec(last - first_due);
    sr.goodput_mbps = mbps(t.payload_ok, last - first_due);
    sr.msg_rate_per_ms = static_cast<double>(t.ok) / (sr.span_us / 1000.0);
    sr.drain_frac = static_cast<double>(last - msgs.back().due) / static_cast<double>(window);
    sr.growing = sr.drain_frac > kMaxDrainFrac;
    sr.not_ok = t.not_ok();
    steps.push_back(sr);

    if (step == kReferenceStep) {
      v.p50_us = sr.p50_us;
      v.p99_us = sr.p99_us;
      v.goodput_mbps = sr.goodput_mbps;
      v.msg_rate_per_ms = sr.msg_rate_per_ms;
      v.completion_us = sr.span_us;
      all.lat_us = t.lat_us;
      all.wait_us = t.wait_us;
    }
    all.attempted += t.attempted;
    all.ok += t.ok;
    all.failed += t.failed;
    all.rejected += t.rejected;
    all.nonterminal += t.nonterminal;
    all.corrupt += t.corrupt;
    all.payload_ok += t.payload_ok;
  }

  // Sustained rate: scanning up the ladder, the offered rate of the last
  // step that meets every limit before the first that does not. When that
  // first failure is the backlog alone, the rate is interpolated to where
  // drain_frac crosses its limit, so the result does not jump a whole rung
  // from seed to seed.
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const StepResult& s = steps[i];
    const bool latency_ok = s.p99_us <= kP99LimitUs && s.not_ok == 0;
    if (latency_ok && !s.growing) {
      v.sustained_mbps = s.offered_mbps;
      continue;
    }
    if (latency_ok && i > 0) {
      const StepResult& prev = steps[i - 1];
      v.sustained_mbps += (s.offered_mbps - prev.offered_mbps) *
                          (kMaxDrainFrac - prev.drain_frac) / (s.drain_frac - prev.drain_frac);
    }
    break;
  }
  std::uint64_t messages = 0;
  for (std::size_t i = 0; i < steps.size(); ++i) messages += i == kReferenceStep ? kReferenceMsgs : kStepMsgs;
  finish(out, v, c, all, messages);
  // Every step's host time counts, quarantine storms included (README.md,
  // "Findings").
  host_rates(out, all, out.drive_seconds);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const StepResult& s = steps[i];
    const std::string k = "ladder." + std::to_string(static_cast<int>(kLadderMbps[i])) + ".";
    out.exact[k + "offered_mbps"] = s.offered_mbps;
    out.exact[k + "p50_us"] = s.p50_us;
    out.exact[k + "p99_us"] = s.p99_us;
    out.exact[k + "drain_frac"] = s.drain_frac;
    out.exact[k + "events"] = static_cast<double>(s.events);
    out.exact[k + "quarantines"] = static_cast<double>(s.quarantines);
    out.exact[k + "not_ok"] = static_cast<double>(s.not_ok);
  }
  if (opt.rec != nullptr) report_predictions(out, tracker);

  check(out, c.qos_stream_chunks > 0, "mixed_reliable: qos_stream_chunks > 0");
  check(out, c.offloaded_chunks > 0, "mixed_reliable: offloaded_chunks > 0");
  check(out, c.rel_retransmits > 0, "mixed_reliable: rel_retransmits > 0");
  check(out, c.forwarded == 0, "mixed_reliable: topology bypassed (forwarded == 0)");
  return out;
}

// --------------------------------------------------------- torus_alltoall

constexpr unsigned kSide = 16;
constexpr unsigned kNodes = kSide * kSide;
constexpr std::size_t kA2aSize = 2_KiB;
/// Nodes enter the all-to-all at seeded times spread over this window, as
/// ranks of a real collective do, and space their sends by a mean issue gap
/// (the modelled host cost of one isend). Without both, the receive ports
/// deliver on a fixed grid and the latency percentiles are the same for
/// every seed.
constexpr double kEntrySkewNs = 2000.0;
constexpr double kIssueGapNs = 10.0;

core::WorldConfig torus_alltoall_config(std::uint64_t) {
  core::WorldConfig cfg;
  cfg.fabric.node_count = kNodes;
  cfg.fabric.rails = {fabric::seastar_torus(), fabric::seastar_torus()};
  cfg.fabric.net = topo::TopologySpec::torus(kSide, kSide);
  cfg.fabric.event_sharding = true;
  cfg.strategy = "hetero-split";
  return cfg;
}

PassResult run_torus_alltoall(const PassOptions& opt) {
  PassResult out;
  const std::size_t n = std::size_t{kNodes} * (kNodes - 1);
  Rng rng = stream(opt.seed, 3);
  // Each node enters at its own time and issues its sends back to back, to
  // every peer in its own seeded order.
  std::vector<SimTime> entry(kNodes);
  for (NodeId i = 0; i < kNodes; ++i) {
    entry[i] = static_cast<SimTime>((static_cast<double>(i) + rng.uniform()) / kNodes * kEntrySkewNs);
  }
  rng.shuffle(entry);
  std::vector<Msg> msgs;
  msgs.reserve(n);
  for (NodeId src = 0; src < kNodes; ++src) {
    std::vector<NodeId> peers;
    for (NodeId dst = 0; dst < kNodes; ++dst) {
      if (dst != src) peers.push_back(dst);
    }
    rng.shuffle(peers);
    SimTime due = entry[src];
    for (NodeId dst : peers) {
      Msg m;
      m.src = src;
      m.dst = dst;
      m.len = kA2aSize;
      m.pattern_off = rng.below(kPatternSlack);
      m.rx_off = msgs.size() * kA2aSize;
      m.due = due;
      due += static_cast<SimTime>(std::llround(-kIssueGapNs * std::log1p(-rng.uniform())));
      msgs.push_back(m);
    }
  }
  std::stable_sort(msgs.begin(), msgs.end(),
                   [](const Msg& a, const Msg& b) { return a.due < b.due; });
  const Pattern pattern(kA2aSize, rng);
  std::vector<core::SendHandle> sends(n);
  std::vector<core::RecvHandle> recvs(n);
  std::uint8_t* rx = arena(n * kA2aSize);

  MemProbe mem;
  mem.mark();
  auto world = build(torus_alltoall_config(opt.seed), opt, out);
  Runner d(*world, opt.rec);
  Arrivals gen(d, *world, pattern, rx, sends, recvs);
  d.start();
  gen.schedule(msgs, 0, n, 0, n / 8);
  d.drain();
  d.stop();
  d.steady_end();
  record_peak(out, mem);

  Tally t;
  t.reserve(n);
  Counts c;
  for (const Msg& m : msgs) c.hops_sum += world->fabric().path_hops(m.src, m.dst);
  const SimTime last = settle(t, *world, pattern, msgs, 0, n, 0, sends, recvs);
  c.add(*world, d);
  Virt v;
  v.p50_us = percentile(t.lat_us, 50.0);
  v.p99_us = percentile(t.lat_us, 99.0);
  v.completion_us = to_usec(last);
  v.msg_rate_per_ms = static_cast<double>(t.ok) / (v.completion_us / 1000.0);
  v.goodput_mbps = mbps(t.payload_ok, last);
  v.sustained_mbps = v.goodput_mbps;  // closed loop: offered == delivered
  finish(out, v, c, t, n);
  host_rates(out, t, d.drive_seconds());

  check(out, c.forwarded > 0, "torus_alltoall: forwarded_segments > 0");
  check(out, c.shards == kNodes, "torus_alltoall: 256 event-queue shards");
  check(out, c.qos_grants == 0, "torus_alltoall: QoS bypassed (qos_grants == 0)");
  check(out, c.rel_segments == 0, "torus_alltoall: reliability bypassed (rel_segments == 0)");
  return out;
}

}  // namespace

namespace {

/// A "Key:   <n> kB" field of /proc/self/status, in kB; -1 when absent.
double status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  const std::size_t n = std::strlen(key);
  for (std::string line; std::getline(in, line);) {
    if (line.compare(0, n, key) == 0) return std::strtod(line.c_str() + n, nullptr);
  }
  return -1.0;
}

}  // namespace

void MemProbe::mark() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // resets VmHWM to the current VmRSS
  clear.close();
  base_kb_ = clear.fail() ? -1.0 : status_kb("VmRSS:");
}

double MemProbe::peak_growth_mb() const {
  const double hwm_kb = status_kb("VmHWM:");
  if (base_kb_ < 0.0 || hwm_kb < 0.0) return NAN;
  // The kernel syncs its resident counters lazily, so a World that frees
  // more than it takes can read a few pages below the mark.
  return std::max(0.0, hwm_kb - base_kb_) / 1024.0;
}

std::unique_ptr<core::World> build_world(core::WorldConfig cfg, SpanRecorder* rec,
                                         double* seconds) {
  const std::string strategy = cfg.strategy;
  const std::int64_t t0 = host_ns();
  auto w = std::make_unique<core::World>(std::move(cfg));
  for (NodeId n = 0; n < w->fabric().node_count(); ++n) {
    auto s = core::make_strategy(strategy);
    w->engine(n).set_strategy(rec != nullptr ? make_traced_strategy(std::move(s), rec)
                                             : std::move(s));
  }
  *seconds = static_cast<double>(host_ns() - t0) * 1e-9;
  return w;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"eager_burst", run_eager_burst, eager_burst_config, false},
      {"bulk_split", run_bulk_split, bulk_split_config, false},
      // A pass has 0-3 quarantines, each costing about half a second of
      // host time (README.md, Findings): one fault stream per run would
      // make the host rates a lottery over the seed.
      {"mixed_reliable", run_mixed_reliable, mixed_reliable_config, true},
      {"torus_alltoall", run_torus_alltoall, torus_alltoall_config, false},
  };
  return all;
}

}  // namespace railbench
