// railbench — the repository's end-to-end benchmark (see README.md here).
//
// One process runs one seeded workload on the DES World. Each "pass" builds
// fresh Worlds and pushes the workload's fixed, seed-generated input
// through them, so every virtual-clock result and every count is a pure
// function of (commit, workload, seed, variant) and repeats exactly from
// pass to pass. Host-clock rates are all deliveries over all host time of
// the passes that fit in the requested wall time.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/world.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace railbench {

using namespace rails;

// ------------------------------------------------------------------ spans

/// Layer boundaries the benchmark times from its own code.
enum SpanName : std::uint8_t {
  kSubmit,       ///< core.submit: Engine::isend / irecv / try_isend
  kDispatch,     ///< fabric.dispatch: EventQueue::step
  kPlanEager,    ///< strategy.plan_eager
  kPlanRdv,      ///< strategy.plan_rendezvous
  kControlRail,  ///< strategy.control_rail
  kGenerate,     ///< bench.generate: a step that ran the workload's own arrival event
  kSpanNameCount
};
const char* span_name(SpanName name);

inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The span clock: the time-stamp counter where the CPU has one, since a
/// span reads the clock twice and a TSC read costs about half a
/// steady_clock read; steady_clock elsewhere. SpanRecorder converts ticks
/// to nanoseconds.
inline std::int64_t span_ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return static_cast<std::int64_t>(__rdtsc());
#else
  return host_ns();
#endif
}

/// Nearest-rank percentile, p in (0, 100]; 0 without samples. Every
/// percentile and median the benchmark reports comes from here.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}
inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// Resident memory the program adds on top of the benchmark's own buffers.
/// mark() resets the kernel's resident high-water mark to the current
/// resident size (Linux: /proc/self/clear_refs), once the pass's inputs,
/// payload pattern and receive buffers exist and are touched;
/// peak_growth_mb() is how far the high-water mark has risen since, or NaN
/// when /proc cannot be read or written.
class MemProbe {
 public:
  void mark();
  double peak_growth_mb() const;

 private:
  double base_kb_ = -1.0;
};

/// In-memory span log. Spans nest strictly (the DES is single-threaded), so
/// a stack of open spans gives each new span its parent. Every span reads
/// the clock at both ends, so time between top-level spans (runner loop,
/// benchmark bookkeeping) stays outside all of them.
class SpanRecorder {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  struct Span {
    std::int64_t start = 0;  ///< span_ticks()
    std::int64_t end = 0;
    std::uint64_t msg = 0;  ///< benchmark message id; 0 = none known
    std::uint32_t parent = kNoParent;
    SpanName name = kSubmit;
  };

  /// Makes room for n spans and touches it, so that no page fault lands
  /// between two spans of the first traced pass.
  void reserve(std::size_t n) {
    spans_.resize(n);
    spans_.clear();
    open_.reserve(16);
  }
  void clear() {
    spans_.clear();
    open_.clear();
    ns0_ = host_ns();
    ticks0_ = span_ticks();
  }
  /// Nanoseconds per span_ticks() tick, calibrated since clear().
  double ns_per_tick() const {
    const std::int64_t ticks = span_ticks() - ticks0_;
    return ticks > 0 ? static_cast<double>(host_ns() - ns0_) / static_cast<double>(ticks) : 1.0;
  }

  /// The clock is read first, so a span's time includes recording it and
  /// the gaps between top-level spans hold only the caller's own code.
  std::uint32_t begin(SpanName name, std::uint64_t msg) {
    const std::int64_t start = span_ticks();
    const std::uint32_t parent = open_.empty() ? kNoParent : open_.back();
    if (msg == 0 && parent != kNoParent) msg = spans_[parent].msg;
    const auto id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(Span{start, 0, msg, parent, name});
    open_.push_back(id);
    return id;
  }
  void end(std::uint32_t id) {
    spans_[id].end = span_ticks();
    open_.pop_back();
  }
  /// Renames the outermost open span: a queue step turns out to have run
  /// the benchmark's own arrival event rather than the program's.
  void rename_root(SpanName name) {
    if (!open_.empty()) spans_[open_.front()].name = name;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::int64_t ns0_ = 0;
  std::int64_t ticks0_ = 0;
};

/// Records one span for its lifetime; inert when the recorder is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, SpanName name, std::uint64_t msg) : rec_(rec) {
    if (rec_ != nullptr) id_ = rec_->begin(name, msg);
  }
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  std::uint32_t id_ = 0;
};

/// Per-layer totals derived from a span log.
struct LayerTimes {
  std::uint64_t calls[kSpanNameCount] = {};
  double self_ns[kSpanNameCount] = {};
  double root_ns = 0.0;  ///< union of top-level spans (they never overlap)
};
LayerTimes summarize(const SpanRecorder& rec);

/// Strategy decorator: forwards every call to the wrapped strategy and
/// records a span around the decision points. name() and
/// eager_plan_cacheable() are forwarded unchanged, so the engine behaves
/// exactly as with the bare strategy.
std::unique_ptr<core::Strategy> make_traced_strategy(std::unique_ptr<core::Strategy> inner,
                                                     SpanRecorder* rec);

// ----------------------------------------------------------------- runner

/// One pass's view of the World: every call into a layer goes through here
/// so the traced pass can time it, and the runner itself steps the event
/// queue (World::wait would abort on a hung request instead of letting the
/// benchmark classify it).
class Runner {
 public:
  Runner(core::World& world, SpanRecorder* rec)
      : world_(world), q_(world.fabric().events()), rec_(rec) {}

  core::SendHandle isend(NodeId src, NodeId dst, Tag tag, const std::uint8_t* data,
                         std::size_t len, std::uint64_t msg);
  core::RecvHandle irecv(NodeId at, NodeId src, Tag tag, std::uint8_t* data,
                         std::size_t len, std::uint64_t msg);

  /// Runs one event. False when the queue is empty. Inline and lean: the
  /// code between two steps is the gap the traced pass cannot attribute.
  bool step() {
    if (q_.empty()) return false;
    if (rec_ == nullptr) {
      q_.step();
    } else {
      const std::uint32_t id = rec_->begin(kDispatch, 0);
      q_.step();
      rec_->end(id);
    }
    if (q_.pending() > pending_max) pending_max = q_.pending();
    return true;
  }
  /// Runs events until the queue is empty.
  void drain() {
    while (step()) {
    }
  }

  /// Host time is charged only between start() and stop(), so input
  /// generation and delivery checks stay out of the measured figures.
  void start() { t0_ = host_ns(); }
  void stop() { drive_ns_ += host_ns() - t0_; }
  double drive_seconds() const { return static_cast<double>(drive_ns_) * 1e-9; }

  /// Allocation window for core.allocs_per_msg: opened once the workload is
  /// past its warm-up share, closed when the pass ends.
  void steady_begin();
  void steady_end();
  std::uint64_t steady_allocs() const { return steady_allocs_; }
  std::uint64_t steady_msgs = 0;  ///< messages submitted inside the window

  /// Events the workload's own generator scheduled (open-loop arrivals);
  /// excluded from fabric.events_per_msg. Each one calls this when it runs,
  /// so its queue step is traced as bench.generate, not fabric.dispatch.
  void generator_fired() {
    if (rec_ != nullptr) rec_->rename_root(kGenerate);
  }
  std::uint64_t generator_events = 0;
  std::size_t pending_max = 0;

 private:
  core::World& world_;
  fabric::EventQueue& q_;
  SpanRecorder* rec_;
  std::int64_t t0_ = 0;
  std::int64_t drive_ns_ = 0;
  std::uint64_t alloc0_ = 0;
  bool steady_open_ = false;
  std::uint64_t steady_allocs_ = 0;
};

// -------------------------------------------------------------- workloads

/// What one pass measured. `exact` holds, by metric name, everything that
/// must repeat bit-for-bit across passes (virtual-clock metrics and
/// counts); the host clock is in setup_seconds and drive_seconds.
struct PassResult {
  std::map<std::string, double> exact;
  std::map<std::string, double> traced_exact;  ///< exact, traced passes only
  /// Steady-state operator-new calls per message. Not exact: the request
  /// pools are process-wide, so a pass can still grow them by a slot or
  /// two; and the tracer's buffers would add to it, so only untraced
  /// passes report it.
  double allocs_per_msg = 0.0;
  /// Largest MemProbe::peak_growth_mb over the pass's Worlds: what building
  /// and driving them added to resident memory.
  double peak_mb = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;        ///< failed + rejected + non-terminal + corrupt
  std::vector<std::string> check_failures;  ///< self-check violations
  std::vector<double> setup_seconds;        ///< one per World built
  double drive_seconds = 0.0;
  std::uint64_t delivered_msgs = 0;   ///< intact deliveries
  std::uint64_t delivered_bytes = 0;  ///< their payload
  std::uint64_t messages = 0;
  LayerTimes layers;  ///< traced passes only
};

struct PassOptions {
  std::uint64_t seed = 1;
  /// Which of the seed's fault streams the pass draws; only workloads with
  /// Workload::varies_per_pass use it.
  std::uint64_t variant = 0;
  SpanRecorder* rec = nullptr;  ///< set on traced passes
};

struct Workload {
  const char* name;
  PassResult (*run)(const PassOptions&);
  /// The workload's (first) World configuration, for set-up timing.
  core::WorldConfig (*config)(std::uint64_t seed);
  /// Pass k runs variant k, so the host figures of a run average over as
  /// many random fault streams as fit in it. Its exact values then repeat
  /// only between passes of one variant.
  bool varies_per_pass;
};

/// Constructs a World and installs its strategy on every engine, through
/// the tracing decorator when `rec` is set. `seconds` receives the host
/// time this took: the benchmark's set-up time.
std::unique_ptr<core::World> build_world(core::WorldConfig cfg, SpanRecorder* rec,
                                         double* seconds);

/// The four workloads, in BENCHMARK.json order.
const std::vector<Workload>& workloads();

}  // namespace railbench
