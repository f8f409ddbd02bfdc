// Hot-path cycle profiler (perf self-observability layer).
//
// "Breaking Band" (Zambre & Chandramowlishwaran) showed that multirail
// message rates are won or lost in the *software* overhead per message, and
// that the only way to shave it is to attribute it layer by layer. This
// profiler does that attribution for the engine's own hot path:
//
//   submit -> classify/admit -> arbiter -> strategy/split -> emit/pack
//          -> place -> completion
//
// Design constraints, in order:
//
//  1. Near-zero cost when disabled: one relaxed atomic load and a branch
//     per instrumentation site (the Engine::set_tracer idiom).
//  2. Exactly attributable when enabled: scopes nest, and a scope records
//     its *self* time (elapsed minus time spent in enclosed scopes), so
//     the per-layer numbers sum to the total instrumented cycles — no
//     double counting, Breaking Band-style.
//  3. Cheap enough to leave on: reading the cycle counter twice per scope
//     (~30 ns on this class of hardware) is an outsized tax on a hot path
//     that handles a small message in well under a microsecond, so the
//     profiler *samples whole root scopes*: every Nth root scope — and
//     everything nested inside it — is timed in full; the rest pay only a
//     depth check. Sampling whole trees keeps the layer partition exact
//     (the sum invariant of (2) holds over the sampled population) and
//     per-message figures are scaled back up by N when reported.
//     N = sample_every(), default 16, 1 = record everything.
//  4. Thread-safe without hot-path locks: per-thread buffers, registered
//     once per thread under a mutex, written single-writer with relaxed
//     atomics, folded into retired totals when a thread exits.
//  5. Compiled out entirely with -DRAILS_PERF_PROFILER=0 (CMake option
//     RAILS_PERF_PROFILER): the macros expand to nothing / a plain
//     lock_guard, so a disabled build carries no trace of the profiler.
//
// Environment: RAILS_PERF=1 enables the profiler at process start (any
// binary, no code changes); RAILS_PERF_SAMPLE=N overrides the sampling
// period.
//
// Cycle source: TSC via __rdtsc on x86-64 (constant_tsc on every machine
// this repo targets), std::chrono::steady_clock ticks elsewhere. Values
// are reported in "cycles" of whichever source is active; ratios and
// per-layer shares are meaningful either way.
//
// Allocation counts come from an *opt-in* operator-new hook
// (src/perf/alloc_hook.cpp) that a binary links explicitly; binaries that
// do not link it simply report zero allocations. The hook is a separate
// translation unit so test binaries that replace operator new themselves
// (tests/test_telemetry.cpp) do not collide, and it compiles to nothing
// under sanitizers so ASan/TSan keep their own allocator interposition.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace rails::telemetry {
class MetricsRegistry;
}

namespace rails::perf {

enum class Layer : unsigned {
  kSubmit = 0,   ///< Engine::submit_send bookkeeping (minus children below)
  kClassify,     ///< QoS classification + admission in submit_send
  kArbiter,      ///< QosArbiter grant pass + queue drain
  kStrategy,     ///< strategy interrogation + split solving
  kEmit,         ///< emission/packing: segments, chunks, wire framing
  kPlace,        ///< rendezvous DATA placed into the posted receive buffer
  kCompletion,   ///< FIN handling and receive completion
  kCount
};

constexpr unsigned kLayerCount = static_cast<unsigned>(Layer::kCount);
const char* layer_name(Layer layer);

/// One layer's totals in a Snapshot.
struct LayerSnapshot {
  std::uint64_t self_cycles = 0;  ///< exclusive time (children deducted)
  std::uint64_t calls = 0;
  std::uint64_t allocs = 0;       ///< operator-new calls attributed here
  std::uint64_t lock_wait_cycles = 0;
};

/// Aggregated view over every thread that ever recorded (live + retired).
struct Snapshot {
  std::array<LayerSnapshot, kLayerCount> layers{};
  /// Sum of *elapsed* cycles of sampled root scopes (scopes with no
  /// enclosing scope). Invariant: equals total_self_cycles() exactly once
  /// all scopes have closed — the Breaking Band attribution property.
  std::uint64_t root_cycles = 0;
  std::uint64_t threads = 0;  ///< thread buffers contributing (live + retired)
  /// Sampling period in effect when the snapshot was taken: cycle and call
  /// figures cover ~1/sample_every of the root scopes that ran, so
  /// per-message estimates multiply by this.
  std::uint64_t sample_every = 1;
  bool enabled = false;

  std::uint64_t total_self_cycles() const {
    std::uint64_t t = 0;
    for (const auto& l : layers) t += l.self_cycles;
    return t;
  }
  std::uint64_t total_allocs() const {
    std::uint64_t t = 0;
    for (const auto& l : layers) t += l.allocs;
    return t;
  }
};

/// The current cycle counter (TSC or steady_clock ticks).
inline std::uint64_t now_cycles() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

class Profiler {
 public:
  /// Hot-path gate: relaxed load + branch. Scopes opened while disabled
  /// record nothing.
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  static void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Sampling period: every Nth root scope (and its whole subtree) is
  /// timed. 1 records everything; 0 is clamped to 1. Takes effect at the
  /// next root scope on each thread.
  static unsigned sample_every() {
    return sample_every_.load(std::memory_order_relaxed);
  }
  static void set_sample_every(unsigned n) {
    sample_every_.store(n == 0 ? 1 : n, std::memory_order_relaxed);
  }

  /// Zeroes every live thread buffer and the retired totals. Call at a
  /// quiescent point (no scopes open); concurrent writers would smear.
  static void reset();

  /// Folds live thread buffers and retired totals into one view.
  static Snapshot snapshot();

  /// Human-readable per-layer table. `messages` > 0 adds a cycles/message
  /// column (the Breaking Band per-message decomposition).
  static void write_table(std::ostream& os, const Snapshot& snap,
                          double messages);

  /// Machine-readable: {"enabled":...,"layers":[{...}],"root_cycles":...}.
  static void write_json(std::ostream& os, const Snapshot& snap,
                         double messages);

  /// Publishes the snapshot as gauges (perf.<layer>.self_cycles, .calls,
  /// .allocs, .lock_wait_cycles, plus perf.total.root_cycles) so the
  /// profiler shows up in metrics dumps and postmortem bundles.
  static void publish(telemetry::MetricsRegistry& registry,
                      const Snapshot& snap);

 private:
  static std::atomic<bool> enabled_;
  static std::atomic<unsigned> sample_every_;
};

/// Per-thread allocation tick, incremented by the opt-in operator-new hook.
/// Plain trivially-constructed thread_local so it is safe to touch from
/// operator new at any point in a thread's lifetime.
extern thread_local std::uint64_t t_alloc_count;

struct ThreadState;  // internal per-thread buffer (profiler.cpp)

/// RAII scope: records self cycles, calls, and allocations against `layer`.
/// Nesting is tracked through a per-thread scope stack; an inner scope's
/// elapsed time and allocations are deducted from its parent so totals
/// partition exactly. Root scopes draw the sampling decision for their
/// whole subtree (design point 3 above); unsampled scopes only maintain
/// the depth counter.
class ScopedTimer {
 public:
  explicit ScopedTimer(Layer layer);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  ThreadState* ts_ = nullptr;  ///< set iff the depth counter was bumped
  // Deliberately uninitialized: the ctor fills them only on the sampled
  // path, keeping the unsampled construction to two stores.
  ScopedTimer* parent_;
  std::uint64_t start_cycles_;
  std::uint64_t start_allocs_;
  std::uint64_t child_cycles_;
  std::uint64_t child_allocs_;
  Layer layer_;
  bool active_ = false;  ///< recording (enabled and sampled)
};

/// Records `cycles` of lock-wait against `layer` on the current thread.
void add_lock_wait(Layer layer, std::uint64_t cycles);

/// Mutex guard that attributes contended acquisition time to a layer.
/// Uncontended locks cost one extra try_lock; contended ones time the wait.
class TimedMutexGuard {
 public:
  TimedMutexGuard(std::mutex& m, Layer layer) : m_(m) {
    if (!Profiler::enabled()) {
      m_.lock();
      return;
    }
    if (m_.try_lock()) return;
    const std::uint64_t t0 = now_cycles();
    m_.lock();
    add_lock_wait(layer, now_cycles() - t0);
  }
  ~TimedMutexGuard() { m_.unlock(); }
  TimedMutexGuard(const TimedMutexGuard&) = delete;
  TimedMutexGuard& operator=(const TimedMutexGuard&) = delete;

 private:
  std::mutex& m_;
};

}  // namespace rails::perf

// -- instrumentation macros --------------------------------------------------
//
// RAILS_PERF_SCOPE(layer)      — opens a ScopedTimer for the rest of the
//                                enclosing block.
// RAILS_PERF_LOCK(mu, layer)   — locks `mu` for the rest of the block,
//                                attributing contended wait to `layer`.
//
// With RAILS_PERF_PROFILER off (CMake -DRAILS_PERF_PROFILER=OFF) both
// expand to profiler-free code, making the disabled build identical to an
// uninstrumented one.

#define RAILS_PERF_CONCAT_(a, b) a##b
#define RAILS_PERF_CONCAT(a, b) RAILS_PERF_CONCAT_(a, b)

#if defined(RAILS_PERF_PROFILER) && RAILS_PERF_PROFILER
#define RAILS_PERF_SCOPE(layer) \
  ::rails::perf::ScopedTimer RAILS_PERF_CONCAT(rails_perf_scope_, __LINE__)(layer)
#define RAILS_PERF_LOCK(mu, layer) \
  ::rails::perf::TimedMutexGuard RAILS_PERF_CONCAT(rails_perf_lock_, __LINE__)(mu, layer)
#else
#define RAILS_PERF_SCOPE(layer) \
  do {                          \
  } while (false)
#define RAILS_PERF_LOCK(mu, layer) \
  std::lock_guard<std::mutex> RAILS_PERF_CONCAT(rails_perf_lock_, __LINE__)(mu)
#endif
