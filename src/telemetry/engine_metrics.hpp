// Cached histogram and gauge handles for the communication engine.
//
// The engine's counters are not here: each one is a row of the engine's
// counter table (core/engine.hpp), bumped into EngineStats and its registry
// mirror by one call. What remains are the metrics that are not counts —
// latency and size distributions, per-rail health/trust/scale/drift levels
// and the bounded-buffer eviction gauges.
//
// attach() resolves every named metric once (allocating registry entries);
// afterwards each hook is a single branch on `registry_` plus relaxed
// atomics — no map lookups, no allocation, no locks. Detached, every hook
// is exactly one null-pointer check, mirroring Engine::set_tracer's
// zero-cost contract (verified by an allocation-counting test).
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "telemetry/metrics.hpp"

namespace rails::telemetry {

class EngineMetrics {
 public:
  /// Resolves handles against `registry` for `rail_count` rails. Passing
  /// nullptr detaches (all hooks become no-ops).
  void attach(MetricsRegistry* registry, std::size_t rail_count) {
    registry_ = registry;
    per_rail_healthy_.clear();
    per_rail_trust_.clear();
    per_rail_scale_.clear();
    per_rail_drift_.clear();
    if (registry_ == nullptr) return;
    send_latency_ = registry_->histogram("engine.send_latency_ns");
    recv_latency_ = registry_->histogram("engine.recv_latency_ns");
    queueing_delay_ = registry_->histogram("engine.queueing_delay_ns");
    emission_bytes_ = registry_->histogram("engine.emission_bytes");
    chunk_bytes_ = registry_->histogram("engine.chunk_bytes");
    trace_dropped_ = registry_->gauge("engine.trace_dropped");
    flight_evictions_ = registry_->gauge("engine.flight_evictions");
    for (std::size_t r = 0; r < rail_count; ++r) {
      const std::string prefix = "engine.rail" + std::to_string(r);
      per_rail_healthy_.push_back(registry_->gauge(prefix + ".healthy"));
      per_rail_healthy_.back()->set(1);
      per_rail_trust_.push_back(registry_->gauge(prefix + ".trust"));
      per_rail_trust_.back()->set(0);  // TRUSTED
      per_rail_scale_.push_back(registry_->gauge(prefix + ".profile_scale_x1000"));
      per_rail_scale_.back()->set(1000);
      per_rail_drift_.push_back(registry_->gauge(prefix + ".drift_x1000"));
      per_rail_drift_.back()->set(0);
    }
  }

  MetricsRegistry* registry() const { return registry_; }

  // -- distributions (one branch when detached) -------------------------------

  void on_send_complete(SimDuration latency) {
    if (registry_ == nullptr) return;
    send_latency_->observe(latency > 0 ? static_cast<std::uint64_t>(latency) : 0);
  }
  /// Submission-to-first-emission delay of one message.
  void on_queueing(SimDuration queueing) {
    if (registry_ == nullptr) return;
    queueing_delay_->observe(queueing > 0 ? static_cast<std::uint64_t>(queueing) : 0);
  }
  void on_recv_complete(SimDuration latency) {
    if (registry_ == nullptr) return;
    recv_latency_->observe(latency > 0 ? static_cast<std::uint64_t>(latency) : 0);
  }
  /// Framed size of one eager emission.
  void on_eager_emit(std::size_t bytes) {
    if (registry_ == nullptr) return;
    emission_bytes_->observe(bytes);
  }
  void on_chunk_posted(std::size_t bytes) {
    if (registry_ == nullptr) return;
    chunk_bytes_->observe(bytes);
  }

  // -- per-rail levels ---------------------------------------------------------

  /// Quarantine entered (false) or lifted by a re-probe (true).
  void on_rail_health(RailId rail, bool healthy) {
    if (registry_ == nullptr || rail >= per_rail_healthy_.size()) return;
    per_rail_healthy_[rail]->set(healthy ? 1 : 0);
  }
  /// The rail's trust state (gauge encodes TrustState 0..3).
  void on_trust_gauge(RailId rail, int state) {
    if (registry_ == nullptr || rail >= per_rail_trust_.size()) return;
    per_rail_trust_[rail]->set(state);
  }
  /// The rail's profile scale after a correction or a re-sampling sweep.
  void on_profile_scale(RailId rail, double scale) {
    if (registry_ == nullptr || rail >= per_rail_scale_.size()) return;
    per_rail_scale_[rail]->set(static_cast<std::int64_t>(scale * 1000.0));
  }
  /// One drift-detector update (|EWMA bias|, scaled by 1000 for the gauge).
  void on_drift_sample(RailId rail, double drift) {
    if (registry_ == nullptr || rail >= per_rail_drift_.size()) return;
    per_rail_drift_[rail]->set(static_cast<std::int64_t>(drift * 1000.0));
  }

  // -- bounded-buffer loss gauges (docs/OBSERVABILITY.md) --------------------

  /// Events evicted from a bounded Tracer ring so far (0 = lossless). A
  /// nonzero value means span reconstruction may report messages incomplete.
  void on_trace_dropped(std::uint64_t dropped) {
    if (registry_ == nullptr) return;
    trace_dropped_->set(static_cast<std::int64_t>(dropped));
  }
  /// Records evicted from the flight recorder's ring (expected to grow on
  /// long runs; the postmortem window is the last N, by design).
  void on_flight_evictions(std::uint64_t evictions) {
    if (registry_ == nullptr) return;
    flight_evictions_->set(static_cast<std::int64_t>(evictions));
  }

 private:
  MetricsRegistry* registry_ = nullptr;
  Histogram* send_latency_ = nullptr;
  Histogram* recv_latency_ = nullptr;
  Histogram* queueing_delay_ = nullptr;
  Histogram* emission_bytes_ = nullptr;
  Histogram* chunk_bytes_ = nullptr;
  Gauge* trace_dropped_ = nullptr;
  Gauge* flight_evictions_ = nullptr;
  std::vector<Gauge*> per_rail_healthy_;
  std::vector<Gauge*> per_rail_trust_;
  std::vector<Gauge*> per_rail_scale_;
  std::vector<Gauge*> per_rail_drift_;
};

}  // namespace rails::telemetry
