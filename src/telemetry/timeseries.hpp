// Health-plane time series (docs/OBSERVABILITY.md, "The health plane").
//
// Every observability layer so far answers "what is the state *now*": the
// MetricsRegistry holds cumulative counters, the flight recorder a recent
// event window, the perf profiler a live cycle breakdown. Nothing records
// how the engine's health *evolves* over a run — and per-class SLO verdicts
// or per-rail trust collapses only look pathological in a time series,
// never in a single snapshot.
//
// This module adds the missing axis:
//
//  * Series          — a fixed-capacity ring of (sim-time, value) points.
//                      When full it compacts adjacent pairs (mean/max/last
//                      per its aggregation kind) and doubles its stride, so
//                      a bounded buffer always spans the whole run at
//                      progressively coarser resolution instead of dropping
//                      the oldest half of history.
//  * HealthSampler   — a sim-time-driven periodic sampler snapshotting a
//                      curated set of registry metrics (message rates,
//                      per-class windowed p50/p99 + deadline hit rate,
//                      per-rail trust/scale, retransmit rate, arbiter queue
//                      depths, perf self-times) into Series. Counter
//                      sources are differenced per tick (rates), histogram
//                      sources are differenced bucket-wise so percentiles
//                      describe the tick's window, not the whole run.
//
// The sampler is driven by the engine's health tick (core/engine.cpp); it
// never owns an event and never consumes virtual time, so enabling it
// leaves every headline (virtual-clock) metric bit-identical. Host-side
// cost is a handful of relaxed atomic loads per tick, bounded by the
// bench-gated <=2% msgrate_multiplex budget.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "telemetry/metrics.hpp"

namespace rails::telemetry {

/// Health-plane switch, carried inside EngineConfig. Default-off: a
/// disabled engine arms no tick and takes no sampling branch at all.
struct TimeseriesConfig {
  bool enabled = false;
};

/// How two adjacent points merge when a full Series compacts.
enum class SeriesAgg : std::uint8_t {
  kMean,  ///< rates, percentiles
  kMax,   ///< queue depths, high-water marks
  kLast,  ///< gauges where the newer value wins (trust, scale)
};

struct SeriesPoint {
  SimTime time = 0;  ///< start of the span this point covers
  double value = 0;
};

/// Fixed-capacity downsampling ring. Appends are O(1) amortised; the
/// occasional compaction halves the point count in place.
class Series {
 public:
  Series(std::string name, SeriesAgg agg, std::size_t capacity);

  const std::string& name() const { return name_; }
  SeriesAgg agg() const { return agg_; }

  void push(SimTime t, double v);

  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  const SeriesPoint& at(std::size_t i) const { return points_[i]; }
  const std::vector<SeriesPoint>& points() const { return points_; }
  /// Raw samples folded into each stored point (doubles per compaction).
  std::uint64_t stride() const { return stride_; }
  /// Most recent raw sample (not the possibly-aggregated stored point).
  double last() const { return last_raw_; }

  /// {"name":..,"agg":..,"stride":..,"points":[[t_ns,v],..]}
  void write_json(std::ostream& os) const;

 private:
  void append(SimTime t, double v);
  void compact();

  std::string name_;
  SeriesAgg agg_;
  std::size_t capacity_;
  std::vector<SeriesPoint> points_;
  std::uint64_t stride_ = 1;
  /// Samples folded into the pending (not yet appended) point.
  std::uint64_t pending_n_ = 0;
  SimTime pending_t_ = 0;
  double pending_v_ = 0;
  double last_raw_ = 0;
};

/// Interpolated percentile over a raw log2-bucket count array (the
/// Histogram bucket layout). Used on per-tick bucket *deltas*, where the
/// cumulative histogram's min/max clipping is unavailable — the bucket
/// bounds are the best available range.
double percentile_from_buckets(
    const std::array<std::uint64_t, Histogram::kBucketCount>& buckets, double p);

/// One sampling tick's view of one traffic class — consumed by the SLO
/// monitor (telemetry/slo.hpp) and mirrored into the per-class Series.
struct ClassTick {
  std::uint64_t completions = 0;  ///< latency samples recorded this tick
  std::uint64_t hits = 0;         ///< deadline hits this tick
  std::uint64_t misses = 0;       ///< deadline misses this tick
  double p50_us = 0;              ///< windowed (this tick's) latency p50
  double p99_us = 0;              ///< windowed latency p99
  /// Bucket-wise histogram delta for this tick (window percentiles over
  /// longer horizons are computed by summing these).
  std::array<std::uint64_t, Histogram::kBucketCount> buckets{};
};

class HealthSampler {
 public:
  /// Sampling period on the virtual clock.
  SimDuration interval() const;

  /// Resolves the curated handle set against `registry` and lays out one
  /// Series per source. `class_names` are the QoS classes in ClassId order
  /// (empty when QoS is off); `rail_count` bounds the per-rail gauges.
  /// nullptr detaches. Metrics that do not exist yet (e.g. perf gauges
  /// before the profiler starts) are re-resolved lazily each tick.
  void attach(MetricsRegistry* registry, std::vector<std::string> class_names,
              std::uint32_t rail_count);

  /// Takes one sample at virtual time `now`: differences the counter and
  /// histogram sources against the previous tick, pushes every series, and
  /// refreshes the per-class tick view returned.
  const std::vector<ClassTick>& sample(SimTime now);

  std::uint64_t ticks() const { return ticks_; }
  std::size_t series_count() const { return series_.size(); }
  const std::vector<Series>& series() const { return series_; }
  /// First series whose name matches exactly, or nullptr.
  const Series* find(std::string_view name) const;
  const std::vector<ClassTick>& last_ticks() const { return class_ticks_; }
  const std::vector<std::string>& class_names() const { return class_names_; }

  /// {"interval_us":..,"ticks":..,"series":[{..},..]} — embedded in flight
  /// recorder postmortem bundles and served by `railsctl watch --json`.
  void write_json(std::ostream& os) const;

 private:
  /// One curated source: where the value comes from each tick.
  struct Source {
    enum class Kind : std::uint8_t {
      kCounterRate,  ///< delta(counter) / interval, scaled to per-ms
      kGauge,        ///< gauge value as-is (scaled by `scale`)
      kHistP50,      ///< tick-delta percentile of a histogram, in us
      kHistP99,
      kHitRate,      ///< hits / (hits + misses) per tick, from two counters
    };
    Kind kind = Kind::kGauge;
    std::string metric;   ///< registry name of the primary source
    std::string metric2;  ///< kHitRate: the misses counter
    double scale = 1.0;
    int cls = -1;  ///< ClassId for per-class sources, -1 otherwise
    // Resolved handles (lazily re-resolved while null).
    const Counter* counter = nullptr;
    const Counter* counter2 = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* hist = nullptr;
    // Previous-tick snapshots for differencing.
    std::uint64_t prev = 0;
    std::uint64_t prev2 = 0;
    std::array<std::uint64_t, Histogram::kBucketCount> prev_buckets{};
  };

  void add_source(Source::Kind kind, std::string series_name, std::string metric,
                  SeriesAgg agg, double scale = 1.0, int cls = -1,
                  std::string metric2 = {});
  void resolve(Source& s);

  MetricsRegistry* registry_ = nullptr;
  std::vector<std::string> class_names_;
  std::uint32_t rail_count_ = 0;
  std::vector<Source> sources_;
  std::vector<Series> series_;  ///< parallel to sources_
  /// Per-class latency-histogram tick state, parallel to class_names_.
  std::vector<ClassTick> class_ticks_;
  std::vector<std::array<std::uint64_t, Histogram::kBucketCount>> class_prev_buckets_;
  std::vector<const Histogram*> class_hists_;
  std::vector<const Counter*> class_hits_;
  std::vector<const Counter*> class_misses_;
  std::vector<std::uint64_t> class_prev_hits_;
  std::vector<std::uint64_t> class_prev_misses_;
  std::uint64_t ticks_ = 0;
  SimTime last_tick_time_ = 0;
};

}  // namespace rails::telemetry
