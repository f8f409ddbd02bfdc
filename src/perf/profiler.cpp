#include "perf/profiler.hpp"

#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <vector>

#include "telemetry/metrics.hpp"

namespace rails::perf {

std::atomic<bool> Profiler::enabled_{false};
std::atomic<unsigned> Profiler::sample_every_{16};
thread_local std::uint64_t t_alloc_count = 0;

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSubmit: return "submit";
    case Layer::kClassify: return "classify";
    case Layer::kArbiter: return "arbiter";
    case Layer::kStrategy: return "strategy";
    case Layer::kEmit: return "emit";
    case Layer::kPlace: return "place";
    case Layer::kCompletion: return "completion";
    case Layer::kCount: break;
  }
  return "?";
}

// Per-thread accumulation buffer. Single writer (the owning thread), read
// cross-thread by snapshot(); every counter field is a relaxed atomic so
// the read is race-free. The owning thread uses load+store instead of
// fetch_add — with one writer that is equivalent and costs a plain add.
// The plain fields at the bottom are scope-stack state touched only by the
// owning thread.
struct ThreadState {
  struct LayerCells {
    std::atomic<std::uint64_t> self_cycles{0};
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> allocs{0};
    std::atomic<std::uint64_t> lock_wait_cycles{0};
  };
  std::array<LayerCells, kLayerCount> layers{};
  std::atomic<std::uint64_t> root_cycles{0};
  ScopedTimer* top = nullptr;  ///< innermost open *recording* scope
  unsigned depth = 0;          ///< open scopes, recording or not
  unsigned countdown = 0;      ///< roots left until the next sampled one
  bool suppress = false;       ///< current root tree is unsampled

  ThreadState();
  ~ThreadState();

  static void bump(std::atomic<std::uint64_t>& cell, std::uint64_t add) {
    cell.store(cell.load(std::memory_order_relaxed) + add,
               std::memory_order_relaxed);
  }
  void zero() {
    for (auto& l : layers) {
      l.self_cycles.store(0, std::memory_order_relaxed);
      l.calls.store(0, std::memory_order_relaxed);
      l.allocs.store(0, std::memory_order_relaxed);
      l.lock_wait_cycles.store(0, std::memory_order_relaxed);
    }
    root_cycles.store(0, std::memory_order_relaxed);
  }
};

// Registry of live thread buffers plus totals retired by exited threads.
struct Registry {
  std::mutex mu;
  std::vector<ThreadState*> live;
  Snapshot retired;  // enabled/threads fields unused here except threads
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: threads may outlive main
  return *r;
}

void fold(Snapshot& into, const ThreadState& ts) {
  for (unsigned i = 0; i < kLayerCount; ++i) {
    into.layers[i].self_cycles +=
        ts.layers[i].self_cycles.load(std::memory_order_relaxed);
    into.layers[i].calls += ts.layers[i].calls.load(std::memory_order_relaxed);
    into.layers[i].allocs += ts.layers[i].allocs.load(std::memory_order_relaxed);
    into.layers[i].lock_wait_cycles +=
        ts.layers[i].lock_wait_cycles.load(std::memory_order_relaxed);
  }
  into.root_cycles += ts.root_cycles.load(std::memory_order_relaxed);
}

ThreadState::ThreadState() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.live.push_back(this);
}

ThreadState::~ThreadState() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  fold(r.retired, *this);
  r.retired.threads += 1;
  for (auto it = r.live.begin(); it != r.live.end(); ++it) {
    if (*it == this) {
      r.live.erase(it);
      break;
    }
  }
}

// Plain thread_local pointer so the hot path pays one null check instead of
// a guarded-initialization branch; the cold path constructs the buffer and
// registers it.
thread_local ThreadState* t_state = nullptr;

[[gnu::noinline]] ThreadState& make_state() {
  static thread_local ThreadState owner;
  t_state = &owner;
  return owner;
}

inline ThreadState& state() {
  ThreadState* ts = t_state;
  return ts != nullptr ? *ts : make_state();
}

// RAILS_PERF=1 turns the profiler on at process start for any binary;
// RAILS_PERF_SAMPLE=N overrides the sampling period.
const bool env_init = [] {
  if (const char* e = std::getenv("RAILS_PERF"); e != nullptr && *e == '1') {
    Profiler::set_enabled(true);
  }
  if (const char* e = std::getenv("RAILS_PERF_SAMPLE"); e != nullptr) {
    const long n = std::atol(e);
    if (n > 0) Profiler::set_sample_every(static_cast<unsigned>(n));
  }
  return true;
}();

void Profiler::reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (ThreadState* ts : r.live) ts->zero();
  r.retired = Snapshot{};
}

Snapshot Profiler::snapshot() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  Snapshot snap = r.retired;
  snap.threads = r.retired.threads + r.live.size();
  for (const ThreadState* ts : r.live) fold(snap, *ts);
  snap.enabled = enabled();
  snap.sample_every = sample_every();
  return snap;
}

ScopedTimer::ScopedTimer(Layer layer) : layer_(layer) {
  if (!Profiler::enabled()) return;
  ThreadState& ts = state();
  ts_ = &ts;
  if (++ts.depth == 1) {
    // Root scope: draw the sampling decision for the whole subtree. A
    // countdown instead of a modulo keeps the unsampled path free of
    // division; the first root on a thread is always sampled so short
    // runs record.
    if (ts.countdown == 0) {
      ts.suppress = false;
      ts.countdown = Profiler::sample_every() - 1;
    } else {
      --ts.countdown;
      ts.suppress = true;
    }
  }
  if (ts.suppress) return;
  active_ = true;
  parent_ = ts.top;
  child_cycles_ = 0;
  child_allocs_ = 0;
  ts.top = this;
  start_allocs_ = t_alloc_count;
  start_cycles_ = now_cycles();
}

ScopedTimer::~ScopedTimer() {
  if (ts_ == nullptr) return;
  ThreadState& ts = *ts_;
  if (--ts.depth == 0) ts.suppress = false;
  if (!active_) return;
  const std::uint64_t elapsed = now_cycles() - start_cycles_;
  const std::uint64_t allocs = t_alloc_count - start_allocs_;
  ts.top = parent_;
  auto& cell = ts.layers[static_cast<unsigned>(layer_)];
  ThreadState::bump(cell.self_cycles, elapsed - child_cycles_);
  ThreadState::bump(cell.calls, 1);
  ThreadState::bump(cell.allocs, allocs - child_allocs_);
  if (parent_ != nullptr) {
    parent_->child_cycles_ += elapsed;
    parent_->child_allocs_ += allocs;
  } else {
    ThreadState::bump(ts.root_cycles, elapsed);
  }
}

void add_lock_wait(Layer layer, std::uint64_t cycles) {
  auto& cell = state().layers[static_cast<unsigned>(layer)];
  ThreadState::bump(cell.lock_wait_cycles, cycles);
}

void Profiler::write_table(std::ostream& os, const Snapshot& snap,
                           double messages) {
  const std::uint64_t total = snap.total_self_cycles();
  // Recorded cycles cover ~1/sample_every of the root scopes; per-message
  // estimates scale back up. Shares and the sum invariant are ratios over
  // the sampled population and need no scaling.
  const double scale = static_cast<double>(snap.sample_every);
  char line[160];
  std::snprintf(line, sizeof(line), "%-12s %14s %7s %10s %12s %10s\n", "layer",
                "self cycles", "share", "calls", "cycles/msg", "allocs/msg");
  os << line;
  for (unsigned i = 0; i < kLayerCount; ++i) {
    const LayerSnapshot& l = snap.layers[i];
    const double share =
        total == 0 ? 0.0
                   : 100.0 * static_cast<double>(l.self_cycles) /
                         static_cast<double>(total);
    const double per_msg =
        messages > 0 ? static_cast<double>(l.self_cycles) * scale / messages : 0.0;
    const double allocs_per_msg =
        messages > 0 ? static_cast<double>(l.allocs) * scale / messages : 0.0;
    std::snprintf(line, sizeof(line),
                  "%-12s %14llu %6.1f%% %10llu %12.0f %10.2f\n",
                  layer_name(static_cast<Layer>(i)),
                  static_cast<unsigned long long>(l.self_cycles), share,
                  static_cast<unsigned long long>(l.calls), per_msg,
                  allocs_per_msg);
    os << line;
  }
  const double total_per_msg =
      messages > 0 ? static_cast<double>(total) * scale / messages : 0.0;
  std::snprintf(line, sizeof(line), "%-12s %14llu %6.1f%% %10s %12.0f %10.2f\n",
                "TOTAL", static_cast<unsigned long long>(total),
                total == 0 ? 0.0 : 100.0, "-", total_per_msg,
                messages > 0
                    ? static_cast<double>(snap.total_allocs()) * scale / messages
                    : 0.0);
  os << line;
  std::uint64_t lock_wait = 0;
  for (const auto& l : snap.layers) lock_wait += l.lock_wait_cycles;
  std::snprintf(line, sizeof(line),
                "root scopes: %llu cycles (layers sum to %s), lock wait: %llu "
                "cycles, threads: %llu, sampling 1/%llu of root scopes\n",
                static_cast<unsigned long long>(snap.root_cycles),
                snap.root_cycles == total ? "exactly this" : "MISMATCH",
                static_cast<unsigned long long>(lock_wait),
                static_cast<unsigned long long>(snap.threads),
                static_cast<unsigned long long>(snap.sample_every));
  os << line;
}

void Profiler::write_json(std::ostream& os, const Snapshot& snap,
                          double messages) {
  os << "{\"enabled\":" << (snap.enabled ? "true" : "false")
     << ",\"threads\":" << snap.threads
     << ",\"sample_every\":" << snap.sample_every
     << ",\"root_cycles\":" << snap.root_cycles
     << ",\"total_self_cycles\":" << snap.total_self_cycles()
     << ",\"messages\":" << (messages > 0 ? messages : 0) << ",\"layers\":[";
  for (unsigned i = 0; i < kLayerCount; ++i) {
    const LayerSnapshot& l = snap.layers[i];
    if (i != 0) os << ',';
    os << "{\"layer\":\"" << layer_name(static_cast<Layer>(i))
       << "\",\"self_cycles\":" << l.self_cycles << ",\"calls\":" << l.calls
       << ",\"allocs\":" << l.allocs
       << ",\"lock_wait_cycles\":" << l.lock_wait_cycles << '}';
  }
  os << "]}";
}

void Profiler::publish(telemetry::MetricsRegistry& registry,
                       const Snapshot& snap) {
  char name[64];
  for (unsigned i = 0; i < kLayerCount; ++i) {
    const LayerSnapshot& l = snap.layers[i];
    const char* layer = layer_name(static_cast<Layer>(i));
    std::snprintf(name, sizeof(name), "perf.%s.self_cycles", layer);
    registry.gauge(name)->set(static_cast<std::int64_t>(l.self_cycles));
    std::snprintf(name, sizeof(name), "perf.%s.calls", layer);
    registry.gauge(name)->set(static_cast<std::int64_t>(l.calls));
    std::snprintf(name, sizeof(name), "perf.%s.allocs", layer);
    registry.gauge(name)->set(static_cast<std::int64_t>(l.allocs));
    std::snprintf(name, sizeof(name), "perf.%s.lock_wait_cycles", layer);
    registry.gauge(name)->set(static_cast<std::int64_t>(l.lock_wait_cycles));
  }
  registry.gauge("perf.total.root_cycles")
      ->set(static_cast<std::int64_t>(snap.root_cycles));
}

}  // namespace rails::perf
