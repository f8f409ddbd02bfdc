// Health plane unit tests (telemetry/timeseries.hpp, telemetry/slo.hpp):
// the downsampling Series ring, percentile-over-bucket-deltas, the
// HealthSampler's counter differencing, the SLO monitor's multi-window
// burn-rate alerting with hysteresis, and the Scorecard's counter-exact
// collection.
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/metrics.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/timeseries.hpp"

namespace rails::telemetry {
namespace {

// -- Series ------------------------------------------------------------------

TEST(Series, RetainsAllPointsUnderCapacity) {
  Series s("x", SeriesAgg::kMean, 8);
  for (int i = 0; i < 8; ++i) s.push(usec(i), static_cast<double>(i));
  EXPECT_EQ(s.size(), 8u);
  EXPECT_EQ(s.stride(), 1u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(s.at(i).time, usec(i));
    EXPECT_DOUBLE_EQ(s.at(i).value, static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(s.last(), 7.0);
}

TEST(Series, CompactsMeanPairsAndDoublesStride) {
  // Capacity 4: the 5th append merges adjacent pairs in place and doubles
  // the stride; later raw samples fold pairwise into pending points.
  Series s("x", SeriesAgg::kMean, 4);
  for (int i = 1; i <= 8; ++i) s.push(usec(i), static_cast<double>(i));
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s.stride(), 2u);
  // (1,2) and (3,4) merged at compaction; 5 appended raw (the compaction
  // happened mid-append); (6,7) folded through the pending point; 8 is
  // still pending. Each stored point keeps its span's start time.
  EXPECT_EQ(s.at(0).time, usec(1));
  EXPECT_DOUBLE_EQ(s.at(0).value, 1.5);
  EXPECT_EQ(s.at(1).time, usec(3));
  EXPECT_DOUBLE_EQ(s.at(1).value, 3.5);
  EXPECT_DOUBLE_EQ(s.at(2).value, 5.0);
  EXPECT_EQ(s.at(3).time, usec(6));
  EXPECT_DOUBLE_EQ(s.at(3).value, 6.5);
  EXPECT_DOUBLE_EQ(s.last(), 8.0);
}

TEST(Series, MaxAndLastAggregation) {
  Series mx("m", SeriesAgg::kMax, 4);
  for (double v : {1.0, 5.0, 2.0, 4.0, 3.0}) mx.push(usec(1), v);
  ASSERT_EQ(mx.size(), 3u);
  EXPECT_DOUBLE_EQ(mx.at(0).value, 5.0);  // max(1, 5)
  EXPECT_DOUBLE_EQ(mx.at(1).value, 4.0);  // max(2, 4)
  EXPECT_DOUBLE_EQ(mx.at(2).value, 3.0);

  Series last("l", SeriesAgg::kLast, 4);
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) last.push(usec(1), v);
  ASSERT_EQ(last.size(), 3u);
  EXPECT_DOUBLE_EQ(last.at(0).value, 2.0);  // newer of (1, 2)
  EXPECT_DOUBLE_EQ(last.at(1).value, 4.0);
  EXPECT_DOUBLE_EQ(last.at(2).value, 5.0);
}

TEST(Series, BoundedForever) {
  // However many samples arrive, the buffer never exceeds its capacity and
  // still spans the whole run (first point keeps the earliest time).
  Series s("x", SeriesAgg::kMean, 16);
  for (int i = 0; i < 10'000; ++i) s.push(usec(i), 1.0);
  EXPECT_LE(s.size(), 16u);
  EXPECT_GT(s.stride(), 1u);
  EXPECT_EQ(s.at(0).time, usec(0));
  EXPECT_DOUBLE_EQ(s.at(0).value, 1.0);  // mean of a constant stays exact
}

TEST(Series, WriteJsonShape) {
  Series s("engine.msg_rate", SeriesAgg::kMean, 4);
  s.push(usec(1), 2.5);
  std::ostringstream os;
  s.write_json(os);
  EXPECT_NE(os.str().find("\"name\":\"engine.msg_rate\""), std::string::npos);
  EXPECT_NE(os.str().find("\"agg\":\"mean\""), std::string::npos);
  EXPECT_NE(os.str().find("\"points\":[[1000,2.5]]"), std::string::npos);
}

// -- percentile_from_buckets -------------------------------------------------

TEST(PercentileFromBuckets, EmptyIsZero) {
  std::array<std::uint64_t, Histogram::kBucketCount> buckets{};
  EXPECT_DOUBLE_EQ(percentile_from_buckets(buckets, 99), 0.0);
}

TEST(PercentileFromBuckets, InterpolatesWithinBucketBounds) {
  std::array<std::uint64_t, Histogram::kBucketCount> buckets{};
  buckets[Histogram::bucket_index(1000)] = 100;  // all mass in [512, 1023]
  const double p50 = percentile_from_buckets(buckets, 50);
  const double p99 = percentile_from_buckets(buckets, 99);
  EXPECT_GE(p50, 512.0);
  EXPECT_LE(p99, 1023.0);
  EXPECT_LE(p50, p99);
}

TEST(PercentileFromBuckets, SplitsAcrossBuckets) {
  std::array<std::uint64_t, Histogram::kBucketCount> buckets{};
  buckets[Histogram::bucket_index(10)] = 10;    // [8, 15]
  buckets[Histogram::bucket_index(1500)] = 10;  // [1024, 2047]
  // p50's target (10 of 20) is fully covered by the low bucket; p99 lands
  // deep in the high one.
  EXPECT_LE(percentile_from_buckets(buckets, 50), 15.0);
  const double p99 = percentile_from_buckets(buckets, 99);
  EXPECT_GE(p99, 1024.0);
  EXPECT_LE(p99, 2047.0);
}

// -- HealthSampler -----------------------------------------------------------

TEST(HealthSampler, DetachedSamplerIsInert) {
  HealthSampler sampler;
  sampler.attach(nullptr, {}, 0);
  const auto& ticks = sampler.sample(usec(100));
  EXPECT_TRUE(ticks.empty());
  EXPECT_EQ(sampler.ticks(), 0u);
  EXPECT_EQ(sampler.series_count(), 0u);
}

TEST(HealthSampler, DifferencesCountersIntoRates) {
  MetricsRegistry registry;
  Counter* sends = registry.counter("engine.sends");
  HealthSampler sampler;
  sampler.attach(&registry, {}, 0);

  sends->inc(10);
  sampler.sample(usec(100));
  const Series* rate = sampler.find("engine.msg_rate");
  ASSERT_NE(rate, nullptr);
  // 10 sends over the first 100 us tick = 100 msgs/ms.
  EXPECT_DOUBLE_EQ(rate->last(), 100.0);

  sends->inc(5);
  sampler.sample(usec(200));
  EXPECT_DOUBLE_EQ(rate->last(), 50.0);  // delta, not cumulative
  EXPECT_EQ(sampler.ticks(), 2u);
}

TEST(HealthSampler, PerClassTicksCarryHitsMissesAndWindowedPercentiles) {
  MetricsRegistry registry;
  Counter* hits = registry.counter("qos.gold.deadline_hits");
  Counter* misses = registry.counter("qos.gold.deadline_misses");
  Histogram* lat = registry.histogram("qos.gold.latency_ns");
  HealthSampler sampler;
  sampler.attach(&registry, {"gold"}, 0);

  hits->inc(3);
  misses->inc(1);
  for (int i = 0; i < 4; ++i) lat->observe(1'000'000);  // 1 ms
  const auto& ticks = sampler.sample(usec(100));
  ASSERT_EQ(ticks.size(), 1u);
  EXPECT_EQ(ticks[0].hits, 3u);
  EXPECT_EQ(ticks[0].misses, 1u);
  EXPECT_EQ(ticks[0].completions, 4u);
  EXPECT_GT(ticks[0].p99_us, 0.0);

  const Series* hit_rate = sampler.find("qos.gold.hit_rate");
  ASSERT_NE(hit_rate, nullptr);
  EXPECT_DOUBLE_EQ(hit_rate->last(), 0.75);

  // An idle tick reports a healthy 1.0, not an outage.
  const auto& idle = sampler.sample(usec(200));
  EXPECT_EQ(idle[0].hits, 0u);
  EXPECT_DOUBLE_EQ(hit_rate->last(), 1.0);
}

TEST(HealthSampler, WriteJsonOmitsEmptySeries) {
  MetricsRegistry registry;
  registry.counter("engine.sends");
  HealthSampler sampler;
  sampler.attach(&registry, {}, 0);
  sampler.sample(usec(100));
  std::ostringstream os;
  sampler.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ticks\":1"), std::string::npos);
  EXPECT_NE(json.find("engine.msg_rate"), std::string::npos);
  // perf gauges never resolved (profiler off) — their series stay out.
  EXPECT_EQ(json.find("perf.submit_self"), std::string::npos);
}

// -- SloMonitor --------------------------------------------------------------

SloSpec burn_spec() {
  SloSpec spec;
  spec.cls = "gold";
  spec.hit_rate = 0.99;
  spec.window = usec(1'200);
  spec.fast_window = usec(300);
  return spec;
}

std::vector<ClassTick> one_tick(std::uint64_t hits, std::uint64_t misses) {
  ClassTick tick;
  tick.hits = hits;
  tick.misses = misses;
  return {tick};
}

TEST(SloMonitor, FiresOnSustainedBurnAndClearsWithHysteresis) {
  SloMonitor monitor({burn_spec()});
  monitor.bind({"gold"});

  // 100% miss rate burns the 1% budget at 100x — but the fast window must
  // first accumulate min_events (8) deadline-tagged completions.
  std::vector<AlertEvent> events = monitor.observe(usec(100), one_tick(0, 4));
  EXPECT_TRUE(events.empty());
  events = monitor.observe(usec(200), one_tick(0, 4));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].firing);
  EXPECT_EQ(events[0].name, "gold.hit_rate");
  EXPECT_TRUE(monitor.any_firing());
  EXPECT_EQ(monitor.alerts_fired(), 1u);
  EXPECT_NE(events[0].detail.find("burning error budget"), std::string::npos);

  // Healthy ticks: the alert clears only after clear_patience (3)
  // consecutive healthy evaluations — and only once the misses have aged
  // out of the fast window.
  bool cleared = false;
  SimTime t = usec(200);
  for (int i = 0; i < 20 && !cleared; ++i) {
    t += usec(100);
    for (const AlertEvent& ev : monitor.observe(t, one_tick(50, 0))) {
      if (!ev.firing) cleared = true;
    }
  }
  EXPECT_TRUE(cleared);
  EXPECT_FALSE(monitor.any_firing());
  EXPECT_EQ(monitor.alerts_fired(), 1u);  // fired once, recovered once
}

TEST(SloMonitor, MinEventsGuardsIdleClasses) {
  SloMonitor monitor({burn_spec()});
  monitor.bind({"gold"});
  // Every tagged send misses, but the fast window never sees min_events
  // completions — a trickle is not an outage.
  SimTime t = 0;
  for (int i = 0; i < 12; ++i) {
    t += usec(150);
    EXPECT_TRUE(monitor.observe(t, one_tick(0, 1)).empty());
  }
  EXPECT_FALSE(monitor.any_firing());
  EXPECT_EQ(monitor.alerts_fired(), 0u);
}

TEST(SloMonitor, LatencyObjectiveFiresOnWindowedP99) {
  SloSpec spec;
  spec.cls = "gold";
  spec.p99_us = 100;  // fire when the windowed p99 exceeds 100 us
  spec.window = usec(1'200);
  spec.fast_window = usec(300);
  SloMonitor monitor({spec});
  monitor.bind({"gold"});

  ClassTick slow_tick;
  slow_tick.completions = 10;
  slow_tick.buckets[Histogram::bucket_index(300'000)] = 10;  // ~300 us
  const std::vector<AlertEvent> events = monitor.observe(usec(100), {slow_tick});
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].firing);
  EXPECT_EQ(events[0].name, "gold.p99");
}

TEST(SloMonitor, UnboundSpecNeverEvaluates) {
  SloSpec spec = burn_spec();
  spec.cls = "platinum";  // no such class
  SloMonitor monitor({spec});
  monitor.bind({"gold"});
  for (int i = 1; i <= 10; ++i) {
    EXPECT_TRUE(monitor.observe(usec(100 * i), one_tick(0, 100)).empty());
  }
  EXPECT_FALSE(monitor.any_firing());
}

TEST(SloMonitor, OneSpecYieldsHitRateAndLatencyObjectives) {
  SloSpec spec = burn_spec();
  spec.p99_us = 500;
  SloMonitor monitor({spec});
  ASSERT_EQ(monitor.alerts().size(), 2u);
  EXPECT_EQ(monitor.alerts()[0].name, "gold.hit_rate");
  EXPECT_EQ(monitor.alerts()[1].name, "gold.p99");
  std::ostringstream os;
  monitor.write_json(os);
  EXPECT_NE(os.str().find("\"name\":\"gold.p99\""), std::string::npos);
}

// -- Scorecard ---------------------------------------------------------------

TEST(Scorecard, CollectIsTheCounters) {
  MetricsRegistry registry;
  registry.counter("qos.gold.granted")->inc(5);
  registry.counter("qos.gold.granted_bytes")->inc(6000);
  registry.counter("qos.gold.deadline_hits")->inc(4);
  registry.counter("qos.gold.deadline_misses")->inc(1);
  registry.counter("qos.gold.rejected_full")->inc(2);
  registry.counter("qos.gold.admission_rejects")->inc(3);
  registry.counter("qos.silver.granted_bytes")->inc(2000);

  const std::vector<ScorecardRow> rows =
      Scorecard::collect(registry, {"gold", "silver"});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].granted, 5u);
  EXPECT_EQ(rows[0].granted_bytes, 6000u);
  EXPECT_EQ(rows[0].deadline_hits, 4u);
  EXPECT_EQ(rows[0].deadline_misses, 1u);
  EXPECT_EQ(rows[0].shed, 2u);
  EXPECT_EQ(rows[0].rejects, 3u);
  EXPECT_DOUBLE_EQ(rows[0].hit_rate, 0.8);
  EXPECT_DOUBLE_EQ(rows[0].goodput_share, 0.75);
  // Deadline-free silver reads as perfectly healthy, never divides by zero.
  EXPECT_DOUBLE_EQ(rows[1].hit_rate, 1.0);
  EXPECT_DOUBLE_EQ(rows[1].goodput_share, 0.25);

  std::ostringstream os;
  Scorecard::write_json(os, rows);
  EXPECT_NE(os.str().find("\"class\":\"gold\""), std::string::npos);
  std::ostringstream table;
  Scorecard::render(table, rows);
  EXPECT_NE(table.str().find("gold"), std::string::npos);
}

}  // namespace
}  // namespace rails::telemetry
