#include "telemetry/metrics.hpp"

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <new>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/world.hpp"
#include "telemetry/counter_mirror.hpp"
#include "telemetry/engine_metrics.hpp"
#include "telemetry/prediction.hpp"
#include "test_util.hpp"
#include "trace/events.hpp"

// -- allocation counting -----------------------------------------------------
//
// The whole binary routes operator new through this counter so the
// zero-cost-when-detached contract can be asserted directly: a detached
// counter bump or EngineMetrics hook must not allocate.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rails::telemetry {
namespace {

// -- Histogram ---------------------------------------------------------------

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 holds exact zeros; bucket i >= 1 spans [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Histogram::bucket_index(7), 3u);
  EXPECT_EQ(Histogram::bucket_index(8), 4u);
  EXPECT_EQ(Histogram::bucket_index(1023), 10u);
  EXPECT_EQ(Histogram::bucket_index(1024), 11u);
  EXPECT_EQ(Histogram::bucket_index(UINT64_MAX), 64u);

  EXPECT_EQ(Histogram::bucket_lower(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper(1), 1u);
  EXPECT_EQ(Histogram::bucket_lower(2), 2u);
  EXPECT_EQ(Histogram::bucket_upper(2), 3u);
  EXPECT_EQ(Histogram::bucket_lower(11), 1024u);
  EXPECT_EQ(Histogram::bucket_upper(11), 2047u);
  EXPECT_EQ(Histogram::bucket_upper(64), UINT64_MAX);

  // Every power of two starts a fresh bucket; its predecessor ends one.
  for (unsigned k = 1; k < 63; ++k) {
    const std::uint64_t pow2 = std::uint64_t{1} << k;
    EXPECT_EQ(Histogram::bucket_index(pow2), k + 1) << "v=2^" << k;
    EXPECT_EQ(Histogram::bucket_index(pow2 - 1), k) << "v=2^" << k << "-1";
    EXPECT_EQ(Histogram::bucket_lower(k + 1), pow2);
  }
}

TEST(Histogram, ObserveTracksStats) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.percentile(95.0), 0u);
  h.observe(0);
  h.observe(5);
  h.observe(100);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 105u);
  EXPECT_DOUBLE_EQ(h.mean(), 35.0);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.bucket(0), 1u);                            // the zero
  EXPECT_EQ(h.bucket(Histogram::bucket_index(5)), 1u);   // [4,8)
  EXPECT_EQ(h.bucket(Histogram::bucket_index(100)), 1u); // [64,128)
}

TEST(Histogram, PercentileInterpolatesWithinBucket) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.observe(v);
  // Uniform 1..100: the 50th percentile lands inside [32,64) and linear
  // interpolation puts it at ~51 (true value 50.5) instead of the bucket's
  // upper bound 63.
  EXPECT_EQ(h.percentile(50.0), 51u);
  // p95 lands in [64,128); the bucket is clipped to the observed max (100),
  // interpolating to ~96 (true value 95) instead of reporting 100.
  EXPECT_EQ(h.percentile(95.0), 96u);
  EXPECT_EQ(h.percentile(100.0), 100u);
}

TEST(Histogram, PercentilePinnedAtPowerOfTwoBoundaries) {
  // A population concentrated on an exact power of two sits on a log2
  // bucket boundary — the worst case for bucket-upper-bound reporting,
  // which would have said 2047 for 1024. Clipping the bucket to the
  // observed [min, max] pins the exact value at every percentile.
  for (const std::uint64_t v : {1024ull, 4096ull, 1ull << 20}) {
    Histogram h;
    for (int i = 0; i < 1000; ++i) h.observe(v);
    EXPECT_EQ(h.percentile(50.0), v) << "p50 of constant " << v;
    EXPECT_EQ(h.percentile(99.0), v) << "p99 of constant " << v;
    EXPECT_EQ(h.percentile(100.0), v) << "p100 of constant " << v;
  }
  // Two adjacent powers of two in distinct buckets: every percentile must
  // stay within the observed [min, max] (the old upper-bound reporting
  // said 4095 for p99 here), and the top tail is pinned exactly because
  // the upper bucket clips to the max.
  Histogram two;
  for (int i = 0; i < 500; ++i) two.observe(1024);
  for (int i = 0; i < 500; ++i) two.observe(2048);
  EXPECT_EQ(two.percentile(99.0), 2048u);
  for (const double p : {10.0, 50.0, 75.0, 90.0}) {
    EXPECT_GE(two.percentile(p), 1024u) << "p" << p;
    EXPECT_LE(two.percentile(p), 2048u) << "p" << p;
  }
}

TEST(Histogram, MergeCombines) {
  Histogram a, b;
  a.observe(10);
  a.observe(20);
  b.observe(1);
  b.observe(4000);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.sum(), 4031u);
  EXPECT_EQ(a.min(), 1u);
  EXPECT_EQ(a.max(), 4000u);
  // Merging an empty histogram must not disturb min/max.
  Histogram empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.min(), 1u);
}

// -- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistry, HandlesAreStableAndNamed) {
  MetricsRegistry reg;
  Counter* c = reg.counter("engine.sends");
  EXPECT_EQ(reg.counter("engine.sends"), c);  // find-or-create, same storage
  c->inc(3);
  EXPECT_EQ(reg.find_counter("engine.sends")->value(), 3u);
  EXPECT_EQ(reg.find_counter("absent"), nullptr);
  EXPECT_EQ(reg.find_histogram("absent"), nullptr);
  EXPECT_EQ(reg.counter_count(), 1u);
  reg.gauge("g")->update_max(7);
  reg.gauge("g")->update_max(4);  // high-water: lower value is ignored
  EXPECT_EQ(reg.find_gauge("g")->value(), 7);
}

TEST(MetricsRegistry, CrossThreadMerge) {
  // The RunningStats::merge idiom at registry scope: one registry per
  // worker, folded into a main registry after the join.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::unique_ptr<MetricsRegistry>> locals;
  for (int t = 0; t < kThreads; ++t) locals.push_back(std::make_unique<MetricsRegistry>());

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&local = *locals[t], t] {
      Counter* ops = local.counter("worker.ops");
      Histogram* lat = local.histogram("worker.latency_ns");
      for (int i = 0; i < kPerThread; ++i) {
        ops->inc();
        lat->observe(static_cast<std::uint64_t>(t * kPerThread + i + 1));
      }
    });
  }
  for (auto& th : threads) th.join();

  MetricsRegistry main_reg;
  main_reg.counter("worker.ops")->inc(5);  // pre-existing value survives merge
  for (const auto& local : locals) main_reg.merge(*local);

  EXPECT_EQ(main_reg.find_counter("worker.ops")->value(),
            static_cast<std::uint64_t>(kThreads * kPerThread + 5));
  const Histogram* lat = main_reg.find_histogram("worker.latency_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(lat->min(), 1u);
  EXPECT_EQ(lat->max(), static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(MetricsRegistry, ConcurrentObserversOnSharedHistogram) {
  // Handles may also be shared directly across threads: the buckets are
  // per-slot atomics. (This is the TSan-exercised path.)
  MetricsRegistry reg;
  Histogram* h = reg.histogram("shared");
  Counter* c = reg.counter("shared.ops");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, c] {
      for (int i = 1; i <= kPerThread; ++i) {
        h->observe(static_cast<std::uint64_t>(i));
        c->inc();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h->count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(c->value(), static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(MetricsRegistry, SnapshotWhileObserve) {
  // The health sampler snapshots (dump_json / per-name reads) while engines
  // keep publishing. Writers hammer shared handles while the main thread
  // renders snapshots; totals must still be exact after the join. (This is
  // the TSan-exercised path for the read side.)
  MetricsRegistry reg;
  Counter* ops = reg.counter("storm.ops");
  Histogram* lat = reg.histogram("storm.latency_ns");
  Gauge* depth = reg.gauge("storm.depth");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([ops, lat, depth, t] {
      for (int i = 1; i <= kPerThread; ++i) {
        ops->inc();
        lat->observe(static_cast<std::uint64_t>(i));
        depth->set(static_cast<std::int64_t>(t * kPerThread + i));
      }
    });
  }
  std::uint64_t snapshots = 0;
  while (!done.load(std::memory_order_relaxed)) {
    std::ostringstream json;
    reg.dump_json(json);
    EXPECT_NE(json.str().find("storm.ops"), std::string::npos);
    std::ostringstream text;
    reg.dump_text(text);
    // Mid-flight reads through the lookup API must also be safe.
    EXPECT_LE(reg.find_counter("storm.ops")->value(),
              static_cast<std::uint64_t>(kThreads * kPerThread));
    if (++snapshots >= 64) done.store(true, std::memory_order_relaxed);
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ops->value(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(lat->count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_GE(snapshots, 64u);
}

TEST(MetricsRegistry, DumpFormats) {
  MetricsRegistry reg;
  reg.counter("a.count")->inc(2);
  reg.gauge("b.depth")->set(9);
  reg.histogram("c.lat")->observe(42);
  std::ostringstream text;
  reg.dump_text(text);
  EXPECT_NE(text.str().find("a.count = 2"), std::string::npos);
  EXPECT_NE(text.str().find("b.depth = 9"), std::string::npos);
  EXPECT_NE(text.str().find("c.lat: count 1"), std::string::npos);

  std::ostringstream json;
  reg.dump_json(json);
  const std::string j = json.str();
  EXPECT_NE(j.find("\"counters\":{\"a.count\":2}"), std::string::npos);
  EXPECT_NE(j.find("\"gauges\":{\"b.depth\":9}"), std::string::npos);
  EXPECT_NE(j.find("\"c.lat\":{\"count\":1"), std::string::npos);
  EXPECT_NE(j.find("\"buckets\":[[32,1]]"), std::string::npos);  // 42 in [32,64)
}

// -- PredictionTracker -------------------------------------------------------

TEST(PredictionTracker, TwoRailSyntheticResiduals) {
  // Rail 0: perfect predictions. Rail 1: consistently 10% optimistic
  // (predicted 10% below actual).
  PredictionTracker tracker(2);
  for (int i = 1; i <= 50; ++i) {
    const SimDuration actual = 1000 * i;
    tracker.record(0, actual, actual);
    tracker.record(1, (actual * 9) / 10, actual);
  }
  EXPECT_EQ(tracker.samples(0), 50u);
  EXPECT_EQ(tracker.samples(1), 50u);
  EXPECT_EQ(tracker.total_samples(), 100u);

  const auto r0 = tracker.accuracy(0);
  EXPECT_DOUBLE_EQ(r0.mean_rel_error, 0.0);
  EXPECT_DOUBLE_EQ(r0.p95_rel_error, 0.0);
  EXPECT_DOUBLE_EQ(r0.mean_bias, 0.0);

  const auto r1 = tracker.accuracy(1);
  EXPECT_NEAR(r1.mean_rel_error, 0.1, 1e-3);
  EXPECT_NEAR(r1.p95_rel_error, 0.1, 1e-3);
  EXPECT_NEAR(r1.max_rel_error, 0.1, 1e-3);
  EXPECT_GT(r1.mean_bias, 0.0);  // actual > predicted: prediction optimistic
}

TEST(PredictionTracker, AccumulatesPerRailAndIgnoresUnknownRails) {
  PredictionTracker tracker(2);
  tracker.record(0, 900, 1000);
  tracker.record(0, 1100, 1000);
  tracker.record(1, 500, 500);
  tracker.record(5, 1, 1);  // out of range: ignored
  EXPECT_EQ(tracker.samples(0), 2u);
  EXPECT_EQ(tracker.samples(1), 1u);
  EXPECT_EQ(tracker.total_samples(), 3u);
  EXPECT_NEAR(tracker.accuracy(0).mean_rel_error, 0.1, 1e-9);
  // Symmetric +/-10% misses cancel in the signed bias.
  EXPECT_NEAR(tracker.accuracy(0).mean_bias, 0.0, 1e-9);

  std::ostringstream os;
  tracker.dump(os);
  EXPECT_NE(os.str().find("rail"), std::string::npos);
}

TEST(PredictionTracker, ReservoirBoundsMemoryWithExactPercentilesBelowCap) {
  BoundedReservoir reservoir(/*cap=*/64, /*seed=*/7);

  // Below the cap every sample is stored, so the percentile is exact.
  for (int i = 1; i <= 50; ++i) reservoir.add(i / 100.0);
  EXPECT_EQ(reservoir.size(), 50u);
  EXPECT_TRUE(reservoir.exact());
  EXPECT_NEAR(reservoir.percentile(95.0), 0.48, 0.015);

  // Past the cap the store stays bounded while the offered count grows.
  for (int i = 0; i < 10'000; ++i) reservoir.add(0.1);
  EXPECT_EQ(reservoir.size(), 64u);
  EXPECT_EQ(reservoir.seen(), 10'050u);
  EXPECT_FALSE(reservoir.exact());
  // The reservoir is dominated by the 10% regime by now.
  EXPECT_NEAR(reservoir.percentile(95.0), 0.1, 0.4);
}

// -- engine counter table and metric sink ------------------------------------

/// Bumps every row of the engine's counter table the way Engine::count does:
/// the EngineStats field, then the mirror slot resolved from the same row.
void bump_every_row(core::EngineStats& stats, const CounterMirror& mirror) {
  for (std::size_t row = 0; row < std::size(core::kEngineCounters); ++row) {
    stats.*core::kEngineCounters[row].field += 1;
    mirror.add(row);
  }
}

TEST(EngineMetrics, DetachedHooksDoNotAllocate) {
  core::EngineStats stats;
  CounterMirror mirror;
  EngineMetrics sink;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    bump_every_row(stats, mirror);
    sink.on_eager_emit(4096);
    sink.on_chunk_posted(65536);
    sink.on_send_complete(1234);
    sink.on_queueing(56);
    sink.on_recv_complete(789);
    sink.on_rail_health(0, false);
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before)
      << "detached telemetry hooks must be allocation-free";
  EXPECT_EQ(stats.sends, 1000u);
  EXPECT_EQ(stats.trust_promotions, 1000u);
}

TEST(EngineMetrics, AttachedHooksHitNamedMetrics) {
  // Every row resolves to its documented name: the strategy rows under the
  // strategy's name, the per-rail rows once per rail.
  core::World world(core::paper_testbed("hetero-split"));
  const std::size_t rails = world.fabric().rail_count();
  MetricsRegistry reg;
  world.engine(0).set_metrics(&reg);
  for (const auto& row : core::kEngineCounters) {
    const std::string name = core::counter_name(row.name, "hetero-split");
    EXPECT_EQ(name.find('<'), std::string::npos) << row.name;
    EXPECT_NE(reg.find_counter(name), nullptr) << name;
  }
  EXPECT_NE(reg.find_counter("strategy.hetero-split.plan_eager"), nullptr);
  EXPECT_NE(reg.find_counter("engine.failover_retries"), nullptr);
  for (const auto& row : core::kRailCounters) {
    for (RailId r = 0; r < rails; ++r) {
      EXPECT_NE(reg.find_counter(core::counter_name(row.name, "", r)), nullptr)
          << row.name << " rail " << r;
    }
  }
  EXPECT_NE(reg.find_counter("engine.rail1.payload_bytes"), nullptr);
  EXPECT_EQ(reg.counter_count(),
            std::size(core::kEngineCounters) + std::size(core::kRailCounters) * rails);
  EXPECT_EQ(core::counter_name("strategy.<name>.plan_eager", ""), "");

  // After attach, the bumps and hooks themselves are allocation-free too:
  // every handle was resolved up front.
  core::EngineStats stats;
  CounterMirror mirror;
  mirror.attach(&reg, std::size(core::kEngineCounters), [](std::size_t row) {
    return core::counter_name(core::kEngineCounters[row].name, "hetero-split");
  });
  EngineMetrics sink;
  sink.attach(&reg, rails);
  const std::uint64_t sends = reg.find_counter("engine.sends")->value();
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  bump_every_row(stats, mirror);
  sink.on_eager_emit(64);
  sink.on_send_complete(10);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
  EXPECT_EQ(reg.find_counter("engine.sends")->value(), sends + 1);
  EXPECT_EQ(reg.find_histogram("engine.send_latency_ns")->count(), 1u);

  // Detached again: bumps reach the struct only.
  mirror.attach(nullptr, std::size(core::kEngineCounters), [](std::size_t) {
    return std::string("unused");
  });
  bump_every_row(stats, mirror);
  EXPECT_EQ(reg.find_counter("engine.sends")->value(), sends + 1);
  EXPECT_EQ(stats.sends, 2u);
  world.engine(0).set_metrics(nullptr);
}

std::string observability_doc() {
  std::ifstream in(RAILS_REPO_DOCS_DIR "/OBSERVABILITY.md");
  std::stringstream doc;
  doc << in.rdbuf();
  return doc.str();
}

TEST(EngineMetrics, EveryCounterRowIsInTheCatalogue) {
  // docs/OBSERVABILITY.md lists each row under its registry name, in the
  // same `<name>` / `<r>` / `<class>` notation the tables use.
  const std::string text = observability_doc();
  ASSERT_FALSE(text.empty());
  const auto documented = [&text](const std::string& name) {
    return text.find("`" + name + "`") != std::string::npos;
  };
  for (const auto& row : core::kEngineCounters) EXPECT_TRUE(documented(row.name)) << row.name;
  for (const auto& row : core::kRailCounters) EXPECT_TRUE(documented(row.name)) << row.name;
  for (const auto& row : qos::kQosCounters) {
    EXPECT_TRUE(documented(std::string("qos.<class>.") + row.name)) << row.name;
  }
}

TEST(EngineMetrics, EveryEventKindIsInTheCatalogue) {
  // docs/OBSERVABILITY.md's events table lists each RAILS_ENGINE_EVENTS row
  // under its display string.
  const std::string text = observability_doc();
  ASSERT_FALSE(text.empty());
  for (const char* kind : trace::kEventNames) {
    EXPECT_NE(text.find("| `" + std::string(kind) + "` |"), std::string::npos) << kind;
  }
}

// -- engine integration ------------------------------------------------------

TEST(EngineIntegration, MetricsAndPredictionsFromRealTraffic) {
  core::World world(core::paper_testbed("multicore-hetero-split"));
  const std::size_t rail_count = world.fabric().rail_count();
  MetricsRegistry reg;
  PredictionTracker predictions(rail_count);
  world.engine(0).set_metrics(&reg);
  world.engine(0).set_prediction_tracker(&predictions);

  // Eager burst + one rendezvous transfer.
  const std::size_t small_size = 2_KiB;
  const std::size_t big_size = 2_MiB;
  const auto small_tx = test::make_pattern(small_size, 1);
  const auto big_tx = test::make_pattern(big_size, 2);
  std::vector<std::vector<std::uint8_t>> rx_small(4);
  std::vector<core::RecvHandle> recvs;
  for (int i = 0; i < 4; ++i) {
    rx_small[i].resize(small_size);
    recvs.push_back(world.engine(1).irecv(0, 10 + i, rx_small[i].data(), small_size));
  }
  std::vector<std::uint8_t> rx_big(big_size);
  recvs.push_back(world.engine(1).irecv(0, 50, rx_big.data(), big_size));
  std::vector<core::SendHandle> sends;
  for (int i = 0; i < 4; ++i) {
    sends.push_back(world.engine(0).isend(1, 10 + i, small_tx.data(), small_size));
  }
  sends.push_back(world.engine(0).isend(1, 50, big_tx.data(), big_size));
  for (auto& r : recvs) world.wait(r);
  for (auto& s : sends) world.wait(s);

  EXPECT_EQ(reg.find_counter("engine.sends")->value(), 5u);
  EXPECT_EQ(reg.find_counter("engine.eager_msgs")->value(), 4u);
  EXPECT_EQ(reg.find_counter("engine.rdv_msgs")->value(), 1u);
  EXPECT_EQ(reg.find_counter("engine.rdv_roundtrips")->value(), 1u);
  EXPECT_GE(reg.find_counter("engine.rdv_chunks")->value(), 2u);
  const Histogram* latency = reg.find_histogram("engine.send_latency_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 5u);
  EXPECT_GT(latency->max(), 0u);
  // Split strategies spread bytes across rails; every rail counter exists.
  std::uint64_t rail_bytes = 0;
  for (std::size_t r = 0; r < rail_count; ++r) {
    const Counter* c =
        reg.find_counter("engine.rail" + std::to_string(r) + ".payload_bytes");
    ASSERT_NE(c, nullptr);
    rail_bytes += c->value();
  }
  EXPECT_GT(rail_bytes, big_size);  // payload plus eager framing

  // The estimator's per-chunk completion predictions were checked against
  // what the fabric actually delivered.
  EXPECT_GT(predictions.total_samples(), 0u);
  for (std::size_t r = 0; r < rail_count; ++r) {
    const auto acc = predictions.accuracy(r);
    if (acc.samples == 0) continue;
    // On an uncontended two-node run the linear model should be close;
    // generous bound so the test stays robust to profile tweaks.
    EXPECT_LT(acc.mean_rel_error, 0.5) << "rail " << r;
  }

  world.engine(0).set_metrics(nullptr);
  world.engine(0).set_prediction_tracker(nullptr);

  // Detached again: traffic leaves the registry untouched.
  const std::uint64_t sends_before = reg.find_counter("engine.sends")->value();
  std::vector<std::uint8_t> rx2(small_size);
  auto r2 = world.engine(1).irecv(0, 99, rx2.data(), small_size);
  world.engine(0).isend(1, 99, small_tx.data(), small_size);
  world.wait(r2);
  EXPECT_EQ(reg.find_counter("engine.sends")->value(), sends_before);
}

}  // namespace
}  // namespace rails::telemetry
