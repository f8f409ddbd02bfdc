// Declarative SLOs with multi-rate burn-rate alerting
// (docs/OBSERVABILITY.md, "The health plane").
//
// An SLO names a target over a window — "class gold keeps a 99% deadline
// hit rate over 10 ms", "class gold's p99 stays under 200 us" — and the
// monitor turns per-tick health samples (telemetry/timeseries.hpp) into
// alert state. Hit-rate objectives use the multi-window, multi-burn-rate
// recipe: the *burn rate* is how fast the error budget (1 - target) is
// being consumed, and an alert fires only when BOTH a short window and a
// long window burn faster than their thresholds — the short window makes
// detection fast, the long window keeps a transient blip from paging.
// Latency objectives fire when the windowed p99 (recomputed from summed
// per-tick histogram-bucket deltas, not averaged percentiles) exceeds the
// target over both windows. Alerts clear with hysteresis: `clear_patience`
// consecutive healthy evaluations, so a metric oscillating on the
// threshold cannot flap.
//
// A firing transition escalates into the flight recorder (the engine wires
// this): the postmortem bundle carries the offending time series, so the
// autopsy shows the collapse unfolding, not just the moment of the page.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "telemetry/timeseries.hpp"

namespace rails::telemetry {

/// One `slo <class> ...` config directive (core/config.cpp).
struct SloSpec {
  std::string cls;      ///< traffic-class name the objective applies to
  double p99_us = 0;    ///< latency objective (0 = none)
  double hit_rate = 0;  ///< deadline hit-rate objective in (0, 1) (0 = none)
  /// Slow evaluation window. The error budget must burn fast over BOTH
  /// windows to fire.
  SimDuration window = usec(10'000);
  /// Fast window (0 = window / 12, the SRE-handbook ratio).
  SimDuration fast_window = 0;
  /// Burn-rate thresholds: observed error rate / budget over the window.
  double fast_burn = 14.4;
  double slow_burn = 6.0;
  /// Consecutive healthy evaluations before a firing alert clears.
  unsigned clear_patience = 3;
  /// Minimum deadline-tagged completions in the fast window before the
  /// hit-rate objective may fire (an idle class is healthy, not in outage).
  std::uint64_t min_events = 8;

  SimDuration effective_fast_window() const {
    return fast_window > 0 ? fast_window : window / 12;
  }
};

/// Live state of one objective (one spec yields up to two: hit_rate, p99).
struct AlertState {
  std::string name;   ///< "<class>.hit_rate" / "<class>.p99"
  std::string cls;
  bool firing = false;
  std::uint64_t fired_count = 0;   ///< ok->firing transitions
  SimTime since = 0;               ///< time of the last transition
  double fast_value = 0;           ///< current fast-window burn rate / p99_us
  double slow_value = 0;
  double threshold = 0;            ///< what fast_value is compared against
};

/// One ok<->firing transition, returned by evaluate() for escalation.
struct AlertEvent {
  std::string name;
  std::string cls;
  bool firing = false;
  double fast_value = 0;
  double slow_value = 0;
  std::string detail;  ///< human summary for the postmortem trigger
};

class SloMonitor {
 public:
  explicit SloMonitor(std::vector<SloSpec> specs);

  const std::vector<SloSpec>& specs() const { return specs_; }

  /// Maps spec class names onto ClassId order (the sampler's class list).
  /// Specs naming an unknown class are kept but never evaluated.
  void bind(const std::vector<std::string>& class_names);

  /// Feeds one sampling tick (every bound class, in ClassId order) and
  /// re-evaluates every objective. Returns the transitions (empty almost
  /// always; the caller escalates firing ones into the flight recorder).
  std::vector<AlertEvent> observe(SimTime now, const std::vector<ClassTick>& ticks);

  bool any_firing() const;
  std::uint64_t alerts_fired() const { return alerts_fired_; }
  const std::vector<AlertState>& alerts() const { return alerts_; }

  /// {"alerts":[{"name":..,"firing":..,..},..]}
  void write_json(std::ostream& os) const;
  /// Human-readable alert table (railsctl slo).
  void dump(std::ostream& os) const;

  /// One retained sampling tick (public so window-summing helpers see it).
  struct TickRec {
    SimTime time = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::array<std::uint64_t, Histogram::kBucketCount> buckets{};
  };

 private:
  /// One objective under evaluation: which spec, which kind, its window
  /// history and its alert slot.
  struct Objective {
    std::size_t spec = 0;
    bool latency = false;  ///< false = hit-rate burn, true = p99
    int cls = -1;          ///< bound ClassId (-1 = unbound, never evaluated)
    std::deque<TickRec> history;
    unsigned healthy_streak = 0;
    std::size_t alert = 0;  ///< index into alerts_
  };

  void evaluate(Objective& obj, SimTime now, std::vector<AlertEvent>& out);

  std::vector<SloSpec> specs_;
  std::vector<Objective> objectives_;
  std::vector<AlertState> alerts_;
  std::uint64_t alerts_fired_ = 0;
};

/// Per-class SLO scorecard over *cumulative* registry counters: deadline
/// hit rate, whole-run p50/p99, goodput share, shed/reject counts. By
/// construction every cell reconciles exactly with the qos.<class>.*
/// metrics it is read from (bench/tenant_storm shape-checks this).
struct ScorecardRow {
  std::string cls;
  std::uint64_t granted = 0;
  std::uint64_t granted_bytes = 0;
  double goodput_share = 0;  ///< granted_bytes / sum over classes
  std::uint64_t deadline_hits = 0;
  std::uint64_t deadline_misses = 0;
  double hit_rate = 1.0;  ///< 1.0 when no deadline-tagged completions
  double p50_us = 0;      ///< cumulative latency percentiles
  double p99_us = 0;
  std::uint64_t shed = 0;        ///< try_isend refusals (rejected_full)
  std::uint64_t rejects = 0;     ///< deadline admission rejects
  std::int64_t queue_depth = 0;
};

class Scorecard {
 public:
  /// Reads one row per class from `registry` (qos.<class>.* metrics).
  static std::vector<ScorecardRow> collect(const MetricsRegistry& registry,
                                           const std::vector<std::string>& class_names);
  static void render(std::ostream& os, const std::vector<ScorecardRow>& rows);
  static void write_json(std::ostream& os, const std::vector<ScorecardRow>& rows);
};

}  // namespace rails::telemetry
