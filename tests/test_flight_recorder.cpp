// Flight recorder: lock-free ring semantics, postmortem bundle round trip,
// rate limiting, the CHECK-failure hook, and — under TSan in CI — genuinely
// concurrent producers on worker-pool and plain threads (the *Concurrent*
// tests).
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/minijson.hpp"
#include "core/world.hpp"
#include "fabric/fault.hpp"
#include "rt/worker_pool.hpp"
#include "telemetry/metrics.hpp"
#include "trace/flight_recorder.hpp"

namespace rails {
namespace {

trace::Event rec(SimTime t, std::uint64_t msg, std::int64_t a = 0, std::int64_t b = 0) {
  return {.time = t, .kind = trace::EventKind::kSubmit, .msg_id = msg, .a = a, .b = b};
}

TEST(FlightRecorder, RingWrapsAndCountsEvictions) {
  trace::FlightRecorder fr(8);
  EXPECT_EQ(fr.capacity(), 8u);
  for (std::uint64_t i = 0; i < 20; ++i) fr.record(rec(usec(i), i));
  EXPECT_EQ(fr.total_recorded(), 20u);
  EXPECT_EQ(fr.evictions(), 12u);
  EXPECT_EQ(fr.last_time(), usec(19));

  const auto window = fr.snapshot();
  ASSERT_EQ(window.size(), 8u);
  // Oldest first, and only the most recent window survives the wrap.
  for (std::size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(window[i].msg_id, 12 + i);
  }
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  trace::FlightRecorder fr(100);
  EXPECT_EQ(fr.capacity(), 128u);
}

// Worker-pool producers hammer the ring while the main thread snapshots.
// Records are self-checking (a == b == msg_id), so a torn read would be
// visible; the seqlock must instead skip in-flight slots. TSan CI runs this.
TEST(FlightRecorder, ConcurrentProducersNeverTearRecords) {
  trace::FlightRecorder fr(64);
  constexpr int kWorkers = 4;
  constexpr int kPerWorker = 5000;
  rt::WorkerPool pool(kWorkers);
  std::atomic<int> done{0};
  for (int w = 0; w < kWorkers; ++w) {
    pool.submit_to(w, rt::Tasklet(
                          [&fr, &done, w] {
                            for (int i = 0; i < kPerWorker; ++i) {
                              const std::uint64_t v =
                                  static_cast<std::uint64_t>(w) * kPerWorker + i;
                              fr.record(rec(static_cast<SimTime>(v), v,
                                            static_cast<std::int64_t>(v),
                                            static_cast<std::int64_t>(v)));
                            }
                            done.fetch_add(1, std::memory_order_release);
                          },
                          rt::TaskPriority::kTasklet));
  }
  while (done.load(std::memory_order_acquire) < kWorkers) {
    for (const trace::FlightRecord& r : fr.snapshot()) {
      EXPECT_EQ(r.a, static_cast<std::int64_t>(r.msg_id));
      EXPECT_EQ(r.b, static_cast<std::int64_t>(r.msg_id));
    }
  }
  pool.drain();
  EXPECT_EQ(fr.total_recorded(),
            static_cast<std::uint64_t>(kWorkers) * kPerWorker);
  const auto window = fr.snapshot();
  EXPECT_EQ(window.size(), fr.capacity());
  for (const trace::FlightRecord& r : window) {
    EXPECT_EQ(r.a, static_cast<std::int64_t>(r.msg_id));
  }
}

// Plain std::thread producers appending a flight-only kind, each on its own
// rail: every retained record keeps the kind, rail and operands its producer
// wrote. TSan CI runs this too.
TEST(FlightRecorder, ConcurrentThreadProducersKeepRecordsWellFormed) {
  trace::FlightRecorder fr(256);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&fr, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint64_t v = static_cast<std::uint64_t>(t) * kPerThread + i;
        fr.record({.time = static_cast<SimTime>(v),
                   .node = 1,
                   .kind = trace::EventKind::kRetransmit,
                   .msg_id = v,
                   .rail = static_cast<RailId>(t),
                   .a = static_cast<std::int64_t>(v) + 1,
                   .b = static_cast<std::int64_t>(t)});
      }
    });
  }
  for (std::thread& p : producers) p.join();

  EXPECT_EQ(fr.total_recorded(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  const auto window = fr.snapshot();
  EXPECT_EQ(window.size(), fr.capacity());
  for (const trace::FlightRecord& r : window) {
    ASSERT_EQ(r.kind, trace::EventKind::kRetransmit);
    EXPECT_EQ(r.node, 1u);
    EXPECT_LT(r.rail, static_cast<RailId>(kThreads));
    EXPECT_EQ(r.b, static_cast<std::int64_t>(r.rail));
    EXPECT_EQ(r.a, static_cast<std::int64_t>(r.msg_id) + 1);
    EXPECT_EQ(r.time, static_cast<SimTime>(r.msg_id));
    EXPECT_EQ(r.msg_id / kPerThread, static_cast<std::uint64_t>(r.rail));
  }
}

TEST(FlightRecorder, BundleRoundTripsThroughRenderer) {
  trace::FlightRecorder fr(32);
  telemetry::MetricsRegistry registry;
  registry.counter("engine.failovers")->inc();
  fr.set_metrics(&registry);
  fr.set_state_writer([](std::ostream& os) {
    os << "{\"node\":0,\"rails\":[{\"rail\":0,\"quarantined\":false}]}";
  });
  for (int i = 0; i < 5; ++i) fr.record(rec(usec(i * 10), i, 512));

  std::stringstream bundle;
  fr.write_bundle(bundle, "failover", "msg 3 re-split off rail 1", usec(40));

  std::ostringstream rendered;
  ASSERT_TRUE(trace::FlightRecorder::render_postmortem(bundle, rendered));
  const std::string out = rendered.str();
  EXPECT_NE(out.find("reason: failover"), std::string::npos);
  EXPECT_NE(out.find("msg 3 re-split off rail 1"), std::string::npos);
  EXPECT_NE(out.find("submit"), std::string::npos);          // event kinds
  EXPECT_NE(out.find("engine.failovers"), std::string::npos);  // metrics
  EXPECT_NE(out.find("quarantined"), std::string::npos);       // state
}

TEST(FlightRecorder, RendererRejectsNonBundles) {
  std::istringstream garbage("this is not a bundle");
  std::ostringstream out;
  EXPECT_FALSE(trace::FlightRecorder::render_postmortem(garbage, out));

  std::istringstream wrong_shape("{\"hello\":1}");
  std::ostringstream out2;
  EXPECT_FALSE(trace::FlightRecorder::render_postmortem(wrong_shape, out2));
}

TEST(FlightRecorder, TriggerWritesFileAndRateLimits) {
  const std::string dir = ::testing::TempDir();
  trace::FlightRecorder fr(32);
  fr.set_output(dir, "fr-test");
  fr.set_rate_limit(1, 0);  // one bundle, ever
  fr.record(rec(usec(1), 1));

  const std::string path = fr.trigger("quarantine", "rail 0 out", usec(2));
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(fr.bundles_written(), 1u);
  EXPECT_EQ(fr.last_bundle_path(), path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream rendered;
  EXPECT_TRUE(trace::FlightRecorder::render_postmortem(in, rendered));
  EXPECT_NE(rendered.str().find("rail 0 out"), std::string::npos);

  // Rate limited: the second trigger records a kTrigger event but writes
  // nothing.
  EXPECT_TRUE(fr.trigger("quarantine", "again", usec(3)).empty());
  EXPECT_EQ(fr.bundles_written(), 1u);
  std::remove(path.c_str());
}

TEST(FlightRecorder, TriggerWithoutOutputDirWritesNothing) {
  trace::FlightRecorder fr(8);
  fr.record(rec(usec(1), 1));
  EXPECT_TRUE(fr.trigger("failover", "no dir configured", usec(2)).empty());
  EXPECT_EQ(fr.bundles_written(), 0u);
  // The attempt itself is still on the record.
  const auto window = fr.snapshot();
  ASSERT_FALSE(window.empty());
  EXPECT_EQ(window.back().kind, trace::EventKind::kTrigger);
}

// The acceptance path: an injected rail fault must leave behind a bundle
// that `railsctl postmortem` (the same renderer) parses and renders.
TEST(FlightRecorder, EngineFailoverProducesRenderablePostmortem) {
  const std::string dir = ::testing::TempDir();
  core::World world(core::paper_testbed("hetero-split"));
  telemetry::MetricsRegistry registry;
  trace::FlightRecorder fr;
  fr.set_output(dir, "fr-failover");
  fr.set_metrics(&registry);
  world.engine(0).set_metrics(&registry);
  world.engine(0).set_flight_recorder(&fr);

  fabric::FaultSpec dead;
  dead.kind = fabric::FaultKind::kFailStop;
  dead.at = usec(20);
  world.fabric().nic(0, 0).inject_fault(dead);

  const std::size_t size = 4 << 20;
  std::vector<std::uint8_t> tx(size, 0x7E);
  std::vector<std::uint8_t> rx(size);
  auto recv = world.engine(1).irecv(0, 5, rx.data(), size);
  auto send = world.engine(0).isend(1, 5, tx.data(), size);
  world.wait(recv);
  world.wait(send);
  EXPECT_EQ(rx, tx);

  ASSERT_GE(fr.bundles_written(), 1u);
  std::ifstream in(fr.last_bundle_path());
  ASSERT_TRUE(in.good());
  std::ostringstream rendered;
  ASSERT_TRUE(trace::FlightRecorder::render_postmortem(in, rendered));
  const std::string out = rendered.str();
  // The bundle autopsy names the failure and carries the engine state.
  EXPECT_TRUE(out.find("failover") != std::string::npos ||
              out.find("quarantine") != std::string::npos)
      << out;
  EXPECT_NE(out.find("tx-error"), std::string::npos);
  EXPECT_NE(out.find("engine state at dump"), std::string::npos);

  world.engine(0).set_flight_recorder(nullptr);
  world.engine(0).set_metrics(nullptr);
  std::remove(fr.last_bundle_path().c_str());
}

using FlightRecorderDeathTest = ::testing::Test;

TEST(FlightRecorderDeathTest, CheckFailureDumpsOneFinalBundle) {
  const std::string dir = ::testing::TempDir();
  const std::string marker = dir + "/fr-check-marker";
  std::remove(marker.c_str());
  EXPECT_DEATH(
      {
        trace::FlightRecorder fr(16);
        fr.set_output(dir, "fr-check");
        fr.record(rec(usec(5), 1));
        fr.install_check_hook();
        RAILS_CHECK_MSG(false, "deliberate check failure");
      },
      "deliberate check failure");
  // The death ran in a child process; find the bundle it left behind.
  bool found = false;
  for (unsigned seq = 0; seq < 16 && !found; ++seq) {
    const std::string path =
        dir + "/fr-check-" + std::to_string(seq) + "-check-failure.json";
    std::ifstream in(path);
    if (!in.good()) continue;
    std::ostringstream rendered;
    found = trace::FlightRecorder::render_postmortem(in, rendered);
    EXPECT_NE(rendered.str().find("check-failure"), std::string::npos);
    std::remove(path.c_str());
  }
  EXPECT_TRUE(found);
  trace::FlightRecorder::uninstall_check_hook();
}

// -- minijson (the parser behind the postmortem renderer and benchdiff) ------

TEST(MiniJson, EscapedStringsRoundTrip) {
  // escape() -> parse() must reproduce the original bytes, including
  // quotes, backslashes, newlines, and control characters.
  const std::string original = "line1\nline2\t\"quoted\\path\"\x01\x1f end";
  std::string doc = "\"";
  doc += minijson::escape(original);
  doc += '"';
  minijson::JsonValue v;
  ASSERT_TRUE(minijson::parse(doc, v));
  ASSERT_EQ(v.type, minijson::JsonValue::Type::kString);
  EXPECT_EQ(v.str, original);
}

TEST(MiniJson, NestedObjectsAndArrays) {
  minijson::JsonValue root;
  ASSERT_TRUE(minijson::parse(
      R"({"a": {"b": [1, 2.5, -3e2], "c": {"deep": true}}, "d": [[], [null]]})",
      root));
  const minijson::JsonValue* b = root.find("a")->find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->array.size(), 3u);
  EXPECT_DOUBLE_EQ(b->array[1].num_or(0), 2.5);
  EXPECT_DOUBLE_EQ(b->array[2].num_or(0), -300.0);
  EXPECT_TRUE(root.find("a")->find("c")->find("deep")->bool_or(false));
  ASSERT_EQ(root.find("d")->array.size(), 2u);
  EXPECT_EQ(root.find("d")->array[0].array.size(), 0u);
  EXPECT_EQ(root.find("d")->array[1].array[0].type,
            minijson::JsonValue::Type::kNull);
}

TEST(MiniJson, UnicodeEscapesDecodeAscii) {
  // The emitters only use \uXXXX for control characters; code points that
  // fit one byte decode exactly, anything larger renders as '?'.
  minijson::JsonValue v;
  ASSERT_TRUE(minijson::parse("\"\\u0041\\u000a\\u00e9\"", v));
  EXPECT_EQ(v.str, "A\n?");
  EXPECT_FALSE(minijson::parse(R"("\uZZZZ")", v));
  EXPECT_FALSE(minijson::parse(R"("\u00)", v));
  EXPECT_FALSE(minijson::parse(R"("\q")", v));
}

TEST(MiniJson, RejectsMalformedInput) {
  minijson::JsonValue v;
  EXPECT_FALSE(minijson::parse("", v));
  EXPECT_FALSE(minijson::parse("{", v));
  EXPECT_FALSE(minijson::parse("{\"a\": }", v));
  EXPECT_FALSE(minijson::parse("[1, 2", v));
  EXPECT_FALSE(minijson::parse("\"unterminated", v));
  EXPECT_FALSE(minijson::parse("truthy", v));
  EXPECT_FALSE(minijson::parse("{} trailing", v));
  EXPECT_FALSE(minijson::parse("{\"a\" 1}", v));
}

TEST(MiniJson, ParsesABenchBundleSchema) {
  // The shape benchdiff consumes (bench_support/bench_json.hpp).
  const char* doc = R"({
    "schema": "rails-bench", "schema_version": 1, "generator": "t",
    "commit": "deadbeef", "quick": true, "generated_unix": 1700000000,
    "benches": [{"name": "msgrate", "config": {"flows": "64"},
                 "metrics": [{"name": "msgs_per_ms/a", "value": 512.25,
                              "unit": "msgs/ms", "higher_is_better": true,
                              "headline": true}]}]
  })";
  minijson::JsonValue root;
  ASSERT_TRUE(minijson::parse(doc, root));
  EXPECT_EQ(root.find("schema")->str_or(""), "rails-bench");
  const minijson::JsonValue& m =
      root.find("benches")->array.at(0).find("metrics")->array.at(0);
  EXPECT_DOUBLE_EQ(m.find("value")->num_or(0), 512.25);
  EXPECT_TRUE(m.find("headline")->bool_or(false));
}

}  // namespace
}  // namespace rails
