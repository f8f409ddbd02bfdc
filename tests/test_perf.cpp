// Tests for the hot-path cycle profiler (src/perf) and the rails-bench
// bundle schema (src/bench_support/bench_json.hpp).
//
// This binary links src/perf/alloc_hook.cpp (see tests/CMakeLists.txt), so
// allocation attribution is live here; binaries without the hook simply
// report zero allocs.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "bench_support/bench_json.hpp"
#include "common/minijson.hpp"
#include "core/world.hpp"
#include "perf/profiler.hpp"

using namespace rails;

namespace {

/// Restores profiler globals on scope exit so tests cannot leak state, and
/// drains the per-thread sampling countdown on entry so each test starts
/// from a freshly-armed sampler regardless of what ran before it.
struct ProfilerGuard {
  ProfilerGuard() {
    perf::Profiler::set_enabled(true);
    perf::Profiler::set_sample_every(1);
    for (int i = 0; i < 64; ++i) {
      RAILS_PERF_SCOPE(perf::Layer::kCompletion);
    }
    perf::Profiler::set_enabled(false);
    perf::Profiler::reset();
  }
  ~ProfilerGuard() {
    perf::Profiler::set_enabled(false);
    perf::Profiler::set_sample_every(16);
    perf::Profiler::reset();
  }
};

/// A small mixed workload: an eager burst plus one rendezvous transfer,
/// touching submit/strategy/emit/place/completion on the instrumented path.
void run_workload(core::World& world) {
  std::vector<std::uint8_t> small(512, 0x11);
  std::vector<std::uint8_t> large(1_MiB, 0x33);
  std::vector<std::uint8_t> rx_small(8 * 512);
  std::vector<std::uint8_t> rx_large(large.size());

  std::vector<core::RecvHandle> recvs;
  for (int i = 0; i < 8; ++i) {
    recvs.push_back(world.engine(1).irecv(0, 100 + i, rx_small.data() + i * 512, 512));
  }
  recvs.push_back(world.engine(1).irecv(0, 300, rx_large.data(), rx_large.size()));
  for (int i = 0; i < 8; ++i) {
    world.engine(0).isend(1, 100 + i, small.data(), small.size());
  }
  world.engine(0).isend(1, 300, large.data(), large.size());
  for (auto& r : recvs) world.wait(r);
}

TEST(PerfProfiler, DisabledRecordsNothing) {
  ProfilerGuard guard;
  perf::Profiler::set_enabled(false);
  perf::Profiler::reset();
  core::World world(core::paper_testbed("multicore-hetero-split"));
  run_workload(world);
  const perf::Snapshot snap = perf::Profiler::snapshot();
  EXPECT_FALSE(snap.enabled);
  EXPECT_EQ(snap.total_self_cycles(), 0u);
  EXPECT_EQ(snap.root_cycles, 0u);
  for (const auto& l : snap.layers) EXPECT_EQ(l.calls, 0u);
}

TEST(PerfProfiler, EnablingDoesNotChangeSimulatedResults) {
  // The profiler observes host time only; virtual-clock results and engine
  // counters must be bit-identical with it on or off. This is the runtime
  // half of the "disabled build is behaviorally identical" guarantee, and
  // it runs in compiled-out builds too.
  ProfilerGuard guard;
  const auto run = [](bool profiled) {
    perf::Profiler::set_enabled(profiled);
    perf::Profiler::set_sample_every(1);
    perf::Profiler::reset();
    core::World world(core::paper_testbed("multicore-hetero-split"));
    run_workload(world);
    return std::pair<SimTime, std::uint64_t>(
        world.now(), world.engine(0).stats().eager_segments +
                         world.engine(0).stats().rdv_chunks);
  };
  const auto off = run(false);
  const auto on = run(true);
  EXPECT_EQ(off.first, on.first);
  EXPECT_EQ(off.second, on.second);
}

// The tests below assert that scopes actually record, so they only exist
// when the profiler is compiled in (the default). An OFF build still runs
// the behavioral-identity and disabled-state tests.
#if defined(RAILS_PERF_PROFILER) && RAILS_PERF_PROFILER

TEST(PerfProfiler, LayerSelfTimesSumToRootCycles) {
  ProfilerGuard guard;
  perf::Profiler::set_enabled(true);
  perf::Profiler::set_sample_every(1);
  perf::Profiler::reset();
  core::World world(core::paper_testbed("multicore-hetero-split"));
  run_workload(world);
  const perf::Snapshot snap = perf::Profiler::snapshot();

  // The Breaking Band attribution property: exclusive per-layer times
  // partition the root-scope total exactly — uint64 arithmetic, not a
  // tolerance check.
  EXPECT_GT(snap.root_cycles, 0u);
  EXPECT_EQ(snap.total_self_cycles(), snap.root_cycles);
  // The workload exercises at least submit, emit, place and completion:
  // the 1 MiB receive's DATA chunks are placed in their own layer.
  EXPECT_GT(snap.layers[static_cast<unsigned>(perf::Layer::kSubmit)].calls, 0u);
  EXPECT_GT(snap.layers[static_cast<unsigned>(perf::Layer::kEmit)].calls, 0u);
  EXPECT_GT(snap.layers[static_cast<unsigned>(perf::Layer::kPlace)].calls, 0u);
  EXPECT_GT(snap.layers[static_cast<unsigned>(perf::Layer::kCompletion)].calls, 0u);
}

TEST(PerfProfiler, ScopesNestAndDeductChildTime) {
  ProfilerGuard guard;
  perf::Profiler::set_enabled(true);
  perf::Profiler::set_sample_every(1);
  perf::Profiler::reset();
  {
    RAILS_PERF_SCOPE(perf::Layer::kSubmit);
    {
      RAILS_PERF_SCOPE(perf::Layer::kStrategy);
      // Burn a little time so the child records non-zero cycles.
      volatile std::uint64_t sink = 0;
      for (int i = 0; i < 10000; ++i) sink = sink + static_cast<std::uint64_t>(i);
    }
  }
  const perf::Snapshot snap = perf::Profiler::snapshot();
  const auto& submit = snap.layers[static_cast<unsigned>(perf::Layer::kSubmit)];
  const auto& strategy = snap.layers[static_cast<unsigned>(perf::Layer::kStrategy)];
  EXPECT_EQ(submit.calls, 1u);
  EXPECT_EQ(strategy.calls, 1u);
  EXPECT_GT(strategy.self_cycles, 0u);
  // Parent self-time excludes the child's elapsed; the partition is exact.
  EXPECT_EQ(snap.total_self_cycles(), snap.root_cycles);
}

TEST(PerfProfiler, SamplingRecordsEveryNthRootScope) {
  ProfilerGuard guard;
  perf::Profiler::set_enabled(true);
  perf::Profiler::set_sample_every(4);
  // The sampling countdown is per-thread state that survives across tests;
  // 16 warmup roots realign it to the new period before we count.
  for (int i = 0; i < 16; ++i) {
    RAILS_PERF_SCOPE(perf::Layer::kCompletion);
  }
  perf::Profiler::reset();
  for (int i = 0; i < 16; ++i) {
    RAILS_PERF_SCOPE(perf::Layer::kCompletion);
  }
  const perf::Snapshot snap = perf::Profiler::snapshot();
  EXPECT_EQ(snap.sample_every, 4u);
  // 16 roots at 1-in-4 sampling: exactly 4 recorded (phase-independent over
  // a whole number of periods), and the invariant holds over the sampled
  // population.
  EXPECT_EQ(snap.layers[static_cast<unsigned>(perf::Layer::kCompletion)].calls, 4u);
  EXPECT_EQ(snap.total_self_cycles(), snap.root_cycles);
}

TEST(PerfProfiler, AllocationAttributedToEnclosingScope) {
  ProfilerGuard guard;
  perf::Profiler::set_enabled(true);
  perf::Profiler::set_sample_every(1);
  perf::Profiler::reset();
  {
    RAILS_PERF_SCOPE(perf::Layer::kEmit);
    std::vector<std::uint8_t>* v = new std::vector<std::uint8_t>(1024, 0x5A);
    delete v;
  }
  const perf::Snapshot snap = perf::Profiler::snapshot();
  // alloc_hook.cpp is linked into this binary: the new above must be
  // attributed to the emit scope (the vector's buffer may add more).
  EXPECT_GE(snap.layers[static_cast<unsigned>(perf::Layer::kEmit)].allocs, 1u);
}

#endif  // RAILS_PERF_PROFILER

TEST(PerfProfiler, WriteJsonIsParsableAndCarriesTheInvariant) {
  ProfilerGuard guard;
  perf::Profiler::set_enabled(true);
  perf::Profiler::set_sample_every(1);
  perf::Profiler::reset();
  core::World world(core::paper_testbed("multicore-hetero-split"));
  run_workload(world);
  const perf::Snapshot snap = perf::Profiler::snapshot();

  std::ostringstream os;
  perf::Profiler::write_json(os, snap, 9.0);
  minijson::JsonValue root;
  ASSERT_TRUE(minijson::parse(os.str(), root));
  const minijson::JsonValue* layers = root.find("layers");
  ASSERT_NE(layers, nullptr);
  ASSERT_EQ(layers->array.size(), perf::kLayerCount);
  double sum = 0.0;
  for (const auto& layer : layers->array) {
    sum += layer.find("self_cycles")->num_or(0.0);
  }
  EXPECT_EQ(sum, root.find("root_cycles")->num_or(-1.0));
  EXPECT_EQ(root.find("sample_every")->num_or(0.0), 1.0);
}

TEST(BenchJson, BundleRoundTripsThroughMinijson) {
  bench::BenchBundle bundle;
  bundle.generator = "test";
  bundle.commit = "abc123";
  bundle.quick = true;
  bundle.generated_unix = 1700000000;
  bench::BenchResult result;
  result.name = "fake \"bench\"";  // quotes must survive the round trip
  result.config = {{"flows", "64"}, {"note", "line\nbreak"}};
  result.metrics.push_back({"msgs_per_ms/a", 123.456, "msgs/ms", true, true});
  result.metrics.push_back({"p99_us", 7.0, "us", false, false});
  bundle.benches.push_back(result);

  std::ostringstream os;
  bench::write_bundle(os, bundle);
  minijson::JsonValue root;
  ASSERT_TRUE(minijson::parse(os.str(), root));
  EXPECT_EQ(root.find("schema")->str_or(""), "rails-bench");
  EXPECT_EQ(root.find("schema_version")->num_or(0),
            static_cast<double>(bench::kBenchSchemaVersion));
  EXPECT_EQ(root.find("commit")->str_or(""), "abc123");
  EXPECT_TRUE(root.find("quick")->bool_or(false));

  const minijson::JsonValue& b = root.find("benches")->array.at(0);
  EXPECT_EQ(b.find("name")->str_or(""), "fake \"bench\"");
  EXPECT_EQ(b.find("config")->find("note")->str_or(""), "line\nbreak");
  const minijson::JsonValue& m0 = b.find("metrics")->array.at(0);
  EXPECT_EQ(m0.find("name")->str_or(""), "msgs_per_ms/a");
  EXPECT_DOUBLE_EQ(m0.find("value")->num_or(0.0), 123.456);
  EXPECT_TRUE(m0.find("higher_is_better")->bool_or(false));
  EXPECT_TRUE(m0.find("headline")->bool_or(false));
  const minijson::JsonValue& m1 = b.find("metrics")->array.at(1);
  EXPECT_FALSE(m1.find("higher_is_better")->bool_or(true));
  EXPECT_FALSE(m1.find("headline")->bool_or(true));
}

TEST(BenchJson, EmptyBenchesAndPerfEmbedding) {
  bench::BenchBundle bundle;
  bundle.generator = "g";
  bundle.commit = "c";
  bundle.generated_unix = 1;
  bundle.perf_json = "{\"enabled\":true,\"layers\":[]}";
  std::ostringstream os;
  bench::write_bundle(os, bundle);
  minijson::JsonValue root;
  ASSERT_TRUE(minijson::parse(os.str(), root));
  EXPECT_EQ(root.find("benches")->array.size(), 0u);
  const minijson::JsonValue* perf = root.find("perf");
  ASSERT_NE(perf, nullptr);
  EXPECT_TRUE(perf->find("enabled")->bool_or(false));
}

}  // namespace
