// Deterministic fault-injection tests (docs/FAULTS.md): fail-stop failover,
// quarantine masking, flap recovery, straggler timeouts, and the telemetry
// counters that observe all of it. Everything runs in virtual time on the
// paper's two-rail testbed, so every scenario is exactly reproducible.
#include <array>
#include <string>

#include <gtest/gtest.h>

#include "core/world.hpp"
#include "fabric/fault.hpp"
#include "fabric/payload.hpp"
#include "telemetry/metrics.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/tracer.hpp"
#include "test_util.hpp"

namespace rails::core {
namespace {

fabric::FaultSpec fail_stop_at(SimTime at) {
  fabric::FaultSpec f;
  f.kind = fabric::FaultKind::kFailStop;
  f.at = at;
  return f;
}

// -- fail-stop mid-transfer --------------------------------------------------

TEST(FaultInjection, FailStopMidTransferCompletesViaSurvivor) {
  core::World world(paper_testbed("hetero-split"));
  const std::size_t size = 4_MiB;
  const auto tx = test::make_pattern(size, 7);
  std::vector<std::uint8_t> rx(size, 0);

  // Rail 0 fail-stops while the rendezvous chunks are in flight.
  world.fabric().nic(0, 0).inject_fault(fail_stop_at(usec(20)));

  auto recv = world.engine(1).irecv(0, 1, rx.data(), size);
  auto send = world.engine(0).isend(1, 1, tx.data(), size);
  world.wait(recv);
  world.wait(send);

  EXPECT_EQ(rx, tx);
  const auto& stats = world.engine(0).stats();
  EXPECT_GT(world.fabric().nic(0, 0).segments_dropped(), 0u);
  EXPECT_GE(stats.tx_errors, 1u);
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_GE(stats.quarantines, 1u);
  EXPECT_TRUE(world.engine(0).rail_quarantined(0));
  EXPECT_FALSE(world.engine(0).rail_quarantined(1));
}

TEST(FaultInjection, FailoverRepostChunksKeepTheSendsTrafficClass) {
  // QoS on, reliability off: the failover re-split re-posts the lost range,
  // and each re-posted chunk is traced in the class of its send, exactly
  // like a first-transmission chunk.
  WorldConfig cfg = paper_testbed("hetero-split");
  cfg.engine.qos.enabled = true;
  ASSERT_FALSE(cfg.engine.reliability.enabled);
  core::World world(cfg);
  trace::Tracer tracer;
  world.engine(0).set_tracer(&tracer);
  const std::size_t size = 4_MiB;
  const auto tx = test::make_pattern(size, 21);
  std::vector<std::uint8_t> rx(size, 0);

  world.fabric().nic(0, 1).inject_fault(fail_stop_at(usec(20)));

  auto recv = world.engine(1).irecv(0, 3, rx.data(), size);
  Engine::SendOptions opts;
  opts.traffic_class = qos::kBackground;
  auto send = world.engine(0).isend(1, 3, tx.data(), size, opts);
  world.wait(recv);
  world.wait(send);
  world.engine(0).set_tracer(nullptr);

  EXPECT_EQ(rx, tx);
  ASSERT_EQ(send->qos_class, qos::kBackground);
  ASSERT_GE(world.engine(0).stats().failovers, 1u);
  ASSERT_GE(world.engine(0).stats().retries, 1u);
  std::size_t chunks = 0;
  for (const trace::Event& e : tracer.of_kind(trace::EventKind::kChunkPosted)) {
    if (e.msg_id != send->id) continue;
    ++chunks;
    EXPECT_EQ(e.cls, qos::kBackground) << "chunk at " << e.time << " on rail " << e.rail;
  }
  EXPECT_GT(chunks, world.engine(0).stats().retries);
  // Windowed chunks and failover re-posts share one chunk path: every post
  // counts once, and only first transmissions advance bytes_posted.
  EXPECT_EQ(send->chunk_count, chunks);
  EXPECT_EQ(send->bytes_posted, size);
}

TEST(FaultInjection, FailStopBeforeTransferStillCompletes) {
  // The whole handshake (RTS included) must survive a rail that was already
  // dead at submission time.
  core::World world(paper_testbed("hetero-split"));
  const std::size_t size = 1_MiB;
  const auto tx = test::make_pattern(size, 8);
  std::vector<std::uint8_t> rx(size, 0);
  world.fabric().nic(0, 0).inject_fault(fail_stop_at(0));

  auto recv = world.engine(1).irecv(0, 2, rx.data(), size);
  auto send = world.engine(0).isend(1, 2, tx.data(), size);
  world.wait(recv);
  world.wait(send);
  EXPECT_EQ(rx, tx);
}

TEST(FaultInjection, ZeroByteMessageSurvivesFailStop) {
  core::World world(paper_testbed("aggregate-fastest"));
  world.fabric().nic(0, 0).inject_fault(fail_stop_at(0));
  auto recv = world.engine(1).irecv(0, 3, nullptr, 0);
  auto send = world.engine(0).isend(1, 3, nullptr, 0);
  world.wait(recv);
  world.wait(send);
  EXPECT_TRUE(recv->done());
  EXPECT_EQ(recv->bytes_received, 0u);
}

// -- quarantine --------------------------------------------------------------

TEST(FaultInjection, QuarantinedRailSkippedByStrategy) {
  core::World world(paper_testbed("hetero-split"));
  const std::size_t size = 2_MiB;
  const auto tx = test::make_pattern(size, 9);
  std::vector<std::uint8_t> rx(size, 0);
  world.fabric().nic(0, 0).inject_fault(fail_stop_at(usec(10)));

  // First transfer trips the fault and quarantines rail 0.
  auto recv = world.engine(1).irecv(0, 4, rx.data(), size);
  auto send = world.engine(0).isend(1, 4, tx.data(), size);
  world.wait(recv);
  world.wait(send);
  ASSERT_TRUE(world.engine(0).rail_quarantined(0));

  // Subsequent planning must not touch rail 0 at all.
  world.engine(0).reset_stats();
  std::fill(rx.begin(), rx.end(), 0);
  auto recv2 = world.engine(1).irecv(0, 5, rx.data(), size);
  auto send2 = world.engine(0).isend(1, 5, tx.data(), size);
  world.wait(recv2);
  world.wait(send2);
  EXPECT_EQ(rx, tx);
  const auto& stats = world.engine(0).stats();
  ASSERT_EQ(stats.payload_bytes_per_rail.size(), 2u);
  EXPECT_EQ(stats.payload_bytes_per_rail[0], 0u);
  EXPECT_EQ(stats.payload_bytes_per_rail[1], size);
  EXPECT_EQ(stats.tx_errors, 0u);  // nothing was offered to the dead rail
}

TEST(FaultInjection, FlapRecoversAndReprobeLiftsQuarantine) {
  core::World world(paper_testbed("hetero-split"));
  const std::size_t size = 2_MiB;
  const auto tx = test::make_pattern(size, 10);
  std::vector<std::uint8_t> rx(size, 0);

  fabric::FaultSpec flap;
  flap.kind = fabric::FaultKind::kFlap;
  flap.at = usec(10);
  flap.duration = usec(200);
  world.fabric().nic(0, 0).inject_fault(flap);

  auto recv = world.engine(1).irecv(0, 6, rx.data(), size);
  auto send = world.engine(0).isend(1, 6, tx.data(), size);
  world.wait(recv);
  world.wait(send);
  EXPECT_EQ(rx, tx);
  ASSERT_GE(world.engine(0).stats().quarantines, 1u);

  // Once the flap window passes, the scheduled re-probe finds the link up
  // and lifts the quarantine; the probe chain then stops, so run_all drains.
  world.fabric().events().run_all();
  EXPECT_FALSE(world.engine(0).rail_quarantined(0));
  EXPECT_GE(world.engine(0).stats().reprobe_successes, 1u);
}

TEST(FaultInjection, FailStopProbeChainTerminates) {
  // A permanently dead rail must not keep the event queue alive forever:
  // the re-probe backoff saturates and gives up, leaving the rail
  // quarantined. (If this regresses, run_all() here never returns.)
  core::World world(paper_testbed("hetero-split"));
  const std::size_t size = 1_MiB;
  const auto tx = test::make_pattern(size, 11);
  std::vector<std::uint8_t> rx(size, 0);
  world.fabric().nic(0, 0).inject_fault(fail_stop_at(usec(10)));

  auto recv = world.engine(1).irecv(0, 7, rx.data(), size);
  auto send = world.engine(0).isend(1, 7, tx.data(), size);
  world.wait(recv);
  world.wait(send);
  world.fabric().events().run_all();
  EXPECT_TRUE(world.engine(0).rail_quarantined(0));
  EXPECT_GE(world.engine(0).stats().reprobes, 1u);
  EXPECT_EQ(world.engine(0).stats().reprobe_successes, 0u);
}

// -- stragglers (degraded rails, no drops) ----------------------------------

TEST(FaultInjection, DegradedRailTriggersTimeoutAndReceiverDedupes) {
  core::World world(paper_testbed("hetero-split"));
  const std::size_t size = 4_MiB;
  const auto tx = test::make_pattern(size, 12);
  std::vector<std::uint8_t> rx(size, 0);

  // Rail 0 silently runs 50x slower than its sampled profile: chunks become
  // stragglers, the predicted-completion timeout fires, and the range is
  // re-split. The original chunk still arrives (degrade never drops), so the
  // receiver must de-duplicate.
  fabric::FaultSpec degrade;
  degrade.kind = fabric::FaultKind::kDegrade;
  degrade.factor = 50.0;
  world.fabric().nic(0, 0).inject_fault(degrade);

  auto recv = world.engine(1).irecv(0, 8, rx.data(), size);
  auto send = world.engine(0).isend(1, 8, tx.data(), size);
  world.wait(recv);
  world.wait(send);
  // Let the straggling original chunk land (long after completion).
  world.fabric().events().run_all();

  EXPECT_EQ(rx, tx);
  EXPECT_EQ(world.fabric().nic(0, 0).segments_dropped(), 0u);
  EXPECT_GE(world.engine(0).stats().chunk_timeouts, 1u);
  EXPECT_GE(world.engine(0).stats().failovers, 1u);
  // Exactly as many duplicate bytes as the straggler carried; at least the
  // counter must have seen it.
  EXPECT_GE(world.engine(1).stats().duplicate_chunks, 1u);
  EXPECT_EQ(recv->bytes_received, size);
}

TEST(FaultInjection, ElevatedLatencyDeliversWithoutLoss) {
  core::World world(paper_testbed("hetero-split"));
  const std::size_t size = 1_MiB;
  const auto tx = test::make_pattern(size, 13);
  std::vector<std::uint8_t> rx(size, 0);

  fabric::FaultSpec lat;
  lat.kind = fabric::FaultKind::kLatency;
  lat.extra_latency = usec(80);
  world.fabric().nic(0, 0).inject_fault(lat);

  auto recv = world.engine(1).irecv(0, 9, rx.data(), size);
  auto send = world.engine(0).isend(1, 9, tx.data(), size);
  world.wait(recv);
  world.wait(send);
  EXPECT_EQ(rx, tx);
  EXPECT_EQ(world.fabric().nic(0, 0).segments_dropped(), 0u);
}

// -- quarantine wake-ups -----------------------------------------------------

TEST(FaultInjection, IdleQuarantinedRailDoesNotSpinTheScheduler) {
  // Rail 0 fail-stops and is quarantined while rail 1 carries a long
  // rendezvous. Eager sends queued behind it must wake the scheduler when
  // rail 1 goes idle — not every nanosecond on the idle quarantined rail.
  core::World world(paper_testbed("hetero-split"));
  world.fabric().nic(0, 0).inject_fault(fail_stop_at(0));
  const std::size_t big = 8_MiB;
  const auto big_tx = test::make_pattern(big, 21);
  std::vector<std::uint8_t> big_rx(big, 0);
  auto big_recv = world.engine(1).irecv(0, 1, big_rx.data(), big);
  auto big_send = world.engine(0).isend(1, 1, big_tx.data(), big);
  fabric::EventQueue& events = world.fabric().events();
  while (!world.engine(0).rail_quarantined(0) && events.step()) {
  }
  ASSERT_TRUE(world.engine(0).rail_quarantined(0));
  ASSERT_GT(world.fabric().nic(0, 1).busy_until(), world.fabric().now() + usec(1000))
      << "rail 1 should still be busy with the rendezvous";

  constexpr unsigned kSmall = 8;
  const auto small_tx = test::make_pattern(1_KiB, 22);
  std::vector<std::vector<std::uint8_t>> small_rx(kSmall, std::vector<std::uint8_t>(1_KiB));
  std::vector<RecvHandle> recvs;
  for (unsigned i = 0; i < kSmall; ++i) {
    recvs.push_back(world.engine(1).irecv(0, 10 + i, small_rx[i].data(), 1_KiB));
    world.engine(0).isend(1, 10 + i, small_tx.data(), 1_KiB);
  }
  const std::uint64_t before = events.processed();
  for (const RecvHandle& r : recvs) world.wait(r);
  world.wait(big_recv);
  world.wait(big_send);
  EXPECT_EQ(big_rx, big_tx);
  for (const auto& rx : small_rx) EXPECT_EQ(rx, small_tx);
  // Thousands of events at most; a 1 ns re-arm runs into the millions.
  EXPECT_LT(events.processed() - before, 10'000u);
}

// -- telemetry ---------------------------------------------------------------

/// Every row of the engine's counter tables (and of the QoS arbiter's, when
/// on): the registry mirror equals the stats field. Callers attach `registry`
/// to `engine` alone and before any traffic, so both count from the same
/// instant.
void expect_counter_tables_reconcile(Engine& engine,
                                     const telemetry::MetricsRegistry& registry) {
  const auto counter = [&](const std::string& name) {
    const telemetry::Counter* c = registry.find_counter(name);
    return c != nullptr ? c->value() : ~0ull;
  };
  const EngineStats& stats = engine.stats();
  const std::string strategy = engine.strategy().name();
  for (const auto& row : kEngineCounters) {
    EXPECT_EQ(counter(counter_name(row.name, strategy)), stats.*row.field) << row.name;
  }
  for (const auto& row : kRailCounters) {
    const std::vector<std::uint64_t>& per_rail = stats.*row.field;
    for (RailId r = 0; r < per_rail.size(); ++r) {
      EXPECT_EQ(counter(counter_name(row.name, strategy, r)), per_rail[r])
          << row.name << " rail " << r;
    }
  }
  if (const qos::QosArbiter* arb = engine.qos()) {
    for (qos::ClassId cls = 0; cls < arb->class_count(); ++cls) {
      const qos::ClassCounters totals = arb->counters(cls);
      for (const auto& row : qos::kQosCounters) {
        const std::string name = "qos." + arb->spec(cls).name + "." + row.name;
        EXPECT_EQ(counter(name), totals.*row.field) << name;
      }
    }
  }
}

TEST(FaultInjection, TelemetryCountersMatchEngineStats) {
  core::World world(paper_testbed("hetero-split"));
  telemetry::MetricsRegistry registry;
  world.engine(0).set_metrics(&registry);

  const std::size_t size = 4_MiB;
  const auto tx = test::make_pattern(size, 15);
  std::vector<std::uint8_t> rx(size, 0);
  world.fabric().nic(0, 0).inject_fault(fail_stop_at(usec(20)));

  auto recv = world.engine(1).irecv(0, 11, rx.data(), size);
  auto send = world.engine(0).isend(1, 11, tx.data(), size);
  world.wait(recv);
  world.wait(send);
  EXPECT_EQ(rx, tx);

  const auto& stats = world.engine(0).stats();
  expect_counter_tables_reconcile(world.engine(0), registry);
  EXPECT_GE(stats.tx_errors, 1u);
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_GE(stats.retries, 1u);

  // Per-rail health gauges mirror the quarantine state.
  const telemetry::Gauge* h0 = registry.find_gauge("engine.rail0.healthy");
  const telemetry::Gauge* h1 = registry.find_gauge("engine.rail1.healthy");
  ASSERT_NE(h0, nullptr);
  ASSERT_NE(h1, nullptr);
  EXPECT_EQ(h0->value(), 0);
  EXPECT_EQ(h1->value(), 1);

  world.engine(0).set_metrics(nullptr);
}

TEST(FaultInjection, TelemetryCountersMatchEngineStatsUnderReliableDrops) {
  // Reliability and QoS on, 2% silent drops on every NIC: retransmits and
  // ACK/NACK segments carry bytes too, and the per-rail byte rows must see
  // every one of them on both sides.
  WorldConfig cfg = paper_testbed("hetero-split");
  cfg.engine.reliability.enabled = true;
  cfg.engine.qos.enabled = true;
  core::World world(std::move(cfg));
  std::array<telemetry::MetricsRegistry, 2> registries;
  for (NodeId n = 0; n < 2; ++n) world.engine(n).set_metrics(&registries[n]);
  fabric::FaultSpec drop;
  drop.kind = fabric::FaultKind::kDrop;
  drop.rate = 0.02;
  for (NodeId n = 0; n < 2; ++n) {
    for (RailId r = 0; r < world.fabric().rail_count(); ++r) {
      world.fabric().nic(n, r).inject_fault(drop);
    }
  }

  constexpr unsigned kMsgs = 1000;
  std::vector<std::vector<std::uint8_t>> tx, rx;
  std::vector<RecvHandle> recvs;
  for (unsigned i = 0; i < kMsgs; ++i) {
    const std::size_t size = i % 20 == 0 ? 256_KiB : 1_KiB + 37 * (i % 200);
    tx.push_back(test::make_pattern(size, i));
    rx.emplace_back(size, 0);
    recvs.push_back(world.engine(1).irecv(0, i, rx[i].data(), size));
  }
  for (unsigned i = 0; i < kMsgs; ++i) world.engine(0).isend(1, i, tx[i].data(), tx[i].size());
  world.fabric().events().run_all();
  for (unsigned i = 0; i < kMsgs; ++i) {
    ASSERT_TRUE(recvs[i]->done()) << "message " << i;
    EXPECT_EQ(rx[i], tx[i]) << "message " << i;
  }

  const EngineStats& s0 = world.engine(0).stats();
  EXPECT_GT(s0.rel_retransmits, 0u);
  EXPECT_GT(world.engine(1).stats().rel_acks, 0u);
  for (NodeId n = 0; n < 2; ++n) {
    SCOPED_TRACE("node " + std::to_string(n));
    expect_counter_tables_reconcile(world.engine(n), registries[n]);
    const qos::QosArbiter& arbiter = *world.engine(n).qos();
    std::uint64_t granted = 0;
    for (qos::ClassId c = 0; c < arbiter.class_count(); ++c) {
      granted += arbiter.counters(c).granted;
    }
    EXPECT_EQ(world.engine(n).stats().qos_grants, granted);
  }
  EXPECT_GT(s0.qos_grants, 0u);
}

// -- one event table ----------------------------------------------------------

/// Every RAILS_ENGINE_EVENTS row that names a counter: the records of that
/// kind, summed over nodes, equal the counter summed over nodes, in each
/// sink the row names. Both sinks must be attached to every engine before
/// any traffic and must have kept every record.
void expect_event_records_reconcile(World& world, const trace::Tracer& tracer,
                                    const trace::FlightRecorder& recorder) {
  ASSERT_EQ(tracer.dropped(), 0u);
  ASSERT_EQ(recorder.evictions(), 0u);
  constexpr std::size_t kKinds = std::size(trace::kEventNames);
  std::array<std::uint64_t, kKinds> traced{};
  std::array<std::uint64_t, kKinds> flown{};
  for (const trace::Event& e : tracer.snapshot()) {
    ++traced[static_cast<std::size_t>(e.kind)];
  }
  for (const trace::FlightRecord& r : recorder.snapshot()) {
    ++flown[static_cast<std::size_t>(r.kind)];
  }
  for (std::size_t k = 0; k < kKinds; ++k) {
    const EngineCounter c = kEventCounters[k];
    if (c == EngineCounter::none) continue;
    const auto field = kEngineCounters[static_cast<std::size_t>(c)].field;
    std::uint64_t counted = 0;
    for (NodeId n = 0; n < world.fabric().node_count(); ++n) {
      counted += world.engine(n).stats().*field;
    }
    const auto kind = static_cast<trace::EventKind>(k);
    if (trace::recorded_by(kind, trace::Sinks::kTracer)) {
      EXPECT_EQ(traced[k], counted) << "tracer: " << trace::to_string(kind);
    }
    if (trace::recorded_by(kind, trace::Sinks::kFlight)) {
      EXPECT_EQ(flown[k], counted) << "flight recorder: " << trace::to_string(kind);
    }
  }
}

/// Runs `msgs` patterned sends node 0 -> node 1 (every tenth one rendezvous)
/// with an unbounded tracer and an eviction-free flight ring on both nodes,
/// drains the queue, and reconciles every event row with its counter.
void run_and_reconcile_events(World& world, unsigned msgs) {
  trace::Tracer tracer;
  trace::FlightRecorder recorder(1 << 17);
  for (NodeId n = 0; n < 2; ++n) {
    world.engine(n).set_tracer(&tracer);
    world.engine(n).set_flight_recorder(&recorder);
  }
  std::vector<std::vector<std::uint8_t>> tx, rx;
  for (unsigned i = 0; i < msgs; ++i) {
    const std::size_t size = i % 10 == 0 ? 256_KiB : 1_KiB + 37 * (i % 50);
    tx.push_back(test::make_pattern(size, i));
    rx.emplace_back(size, 0);
    world.engine(1).irecv(0, i, rx[i].data(), size);
  }
  for (unsigned i = 0; i < msgs; ++i) {
    world.engine(0).isend(1, i, tx[i].data(), tx[i].size());
  }
  world.fabric().events().run_all();
  expect_event_records_reconcile(world, tracer, recorder);
  for (NodeId n = 0; n < 2; ++n) {
    world.engine(n).set_tracer(nullptr);
    world.engine(n).set_flight_recorder(nullptr);
  }
}

TEST(FaultInjection, EventRecordsReconcileWithCountersUnderAFaultStorm) {
  // Reliability on, every data-plane fault on every NIC, and rail 1 of the
  // sender fail-stops mid-run: retransmits, NACKs, duplicate suppression,
  // tx errors and quarantines all fire.
  WorldConfig cfg = paper_testbed("hetero-split");
  cfg.engine.reliability.enabled = true;
  World world(std::move(cfg));
  fabric::FaultSpec storm[4];
  storm[0].kind = fabric::FaultKind::kDrop;
  storm[0].rate = 0.02;
  storm[1].kind = fabric::FaultKind::kCorrupt;
  storm[1].rate = 0.01;
  storm[2].kind = fabric::FaultKind::kDup;
  storm[2].rate = 0.01;
  storm[3].kind = fabric::FaultKind::kReorder;
  storm[3].rate = 0.05;
  storm[3].reorder_window = 4;
  for (NodeId n = 0; n < 2; ++n) {
    for (RailId r = 0; r < world.fabric().rail_count(); ++r) {
      for (const fabric::FaultSpec& f : storm) world.fabric().nic(n, r).inject_fault(f);
    }
  }
  world.fabric().nic(0, 1).inject_fault(fail_stop_at(usec(500)));

  run_and_reconcile_events(world, 300);

  const EngineStats& tx = world.engine(0).stats();
  const EngineStats& rx = world.engine(1).stats();
  EXPECT_GT(tx.rel_retransmits, 0u);
  EXPECT_GT(tx.tx_errors, 0u);
  EXPECT_GT(tx.quarantines, 0u);
  EXPECT_GT(rx.rel_corruptions, 0u);
  EXPECT_GT(rx.rel_dup_suppressed, 0u);
}

TEST(FaultInjection, EventRecordsReconcileWithCountersThroughFailover) {
  // Without reliability the failover re-split owns recovery: a fail-stop
  // mid-transfer fires failover, chunk re-posts and quarantine rows.
  World world(paper_testbed("hetero-split"));
  world.fabric().nic(0, 0).inject_fault(fail_stop_at(usec(20)));

  run_and_reconcile_events(world, 50);

  const EngineStats& tx = world.engine(0).stats();
  EXPECT_GT(tx.failovers, 0u);
  EXPECT_GT(tx.quarantines, 0u);
  EXPECT_GT(tx.rdv_chunks, 0u);
}

// -- NIC-level fault mechanics ----------------------------------------------

TEST(FaultInjection, FlapWindowOnlyDropsOverlappingFlights) {
  // A flap covers [at, at + duration); only flights overlapping the window
  // are dropped. Flights wholly before or after it are untouched.
  core::World world(paper_testbed("single-rail:0"));
  auto& nic = world.fabric().nic(0, 0);
  fabric::FaultSpec flap;
  flap.kind = fabric::FaultKind::kFlap;
  flap.at = usec(50);
  flap.duration = usec(30);
  nic.inject_fault(flap);

  EXPECT_TRUE(nic.link_up(usec(49)));
  EXPECT_FALSE(nic.link_up(usec(50)));
  EXPECT_FALSE(nic.link_up(usec(79)));
  EXPECT_TRUE(nic.link_up(usec(81)));
  EXPECT_FALSE(nic.down_overlaps(usec(0), usec(49)));   // before the window
  EXPECT_TRUE(nic.down_overlaps(usec(40), usec(60)));   // straddles the start
  EXPECT_TRUE(nic.down_overlaps(usec(60), usec(70)));   // inside
  EXPECT_TRUE(nic.down_overlaps(usec(10), usec(200)));  // spans the window
  EXPECT_FALSE(nic.down_overlaps(usec(81), usec(90)));  // after the window

  // Traffic before the window is untouched.
  const std::size_t size = 512;
  const auto tx = test::make_pattern(size, 16);
  std::vector<std::uint8_t> rx(size, 0);
  auto recv = world.engine(1).irecv(0, 12, rx.data(), size);
  auto send = world.engine(0).isend(1, 12, tx.data(), size);
  world.wait(recv);
  world.wait(send);
  EXPECT_LT(recv->complete_time, usec(50));
  EXPECT_EQ(nic.segments_dropped(), 0u);
  EXPECT_EQ(rx, tx);
}

TEST(FaultInjection, ClearFaultsRestoresHealth) {
  core::World world(paper_testbed("single-rail:0"));
  auto& nic = world.fabric().nic(0, 0);
  nic.inject_fault(fail_stop_at(0));
  EXPECT_FALSE(nic.link_up(usec(1)));
  nic.clear_faults();
  EXPECT_TRUE(nic.link_up(usec(1)));
}

// -- send-buffer lifetime (docs/PROTOCOL.md "Send-buffer contract") ----------
//
// With reliability off, rendezvous DMA chunks read the sender's buffer in
// place through a pin. Each scenario below overwrites or inspects that
// buffer at the moment the contract hands it back to the application, and
// checks the receiver and the pin slab for fallout.

/// Bytes of `rx` that are neither still zero-filled nor the original data.
std::size_t poisoned_bytes(const std::vector<std::uint8_t>& rx,
                           const std::vector<std::uint8_t>& original) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < rx.size(); ++i) n += rx[i] != 0 && rx[i] != original[i];
  return n;
}

TEST(SendBufferLifetime, FailedSendRescuesChunksStillInFlight) {
  // Both sender rails deliver 20 ms late: every chunk times out, failover
  // runs out of attempts and fails the send while the original chunks are
  // still on the wire. The application then reuses its buffer; the late
  // chunks must deliver the bytes they were posted with.
  core::World world(paper_testbed("hetero-split"));
  ASSERT_FALSE(world.engine(0).config().reliability.enabled);
  fabric::FaultSpec lat;
  lat.kind = fabric::FaultKind::kLatency;
  lat.extra_latency = usec(20000);
  for (RailId r = 0; r < world.fabric().rail_count(); ++r) {
    world.fabric().nic(0, r).inject_fault(lat);
  }
  const std::size_t size = 1_MiB;
  auto tx = test::make_pattern(size, 31);
  const auto original = tx;
  std::vector<std::uint8_t> rx(size, 0);

  auto recv = world.engine(1).irecv(0, 13, rx.data(), size);
  auto send = world.engine(0).isend(1, 13, tx.data(), size);
  ASSERT_TRUE(world.fabric().events().run_until([&] { return send->failed(); }));
  std::fill(tx.begin(), tx.end(), 0xEE);
  world.fabric().events().run_all();

  EXPECT_GE(world.engine(0).stats().failover_exhausted, 1u);
  EXPECT_GT(recv->bytes_received, 0u) << "no chunk outlived the failure";
  EXPECT_EQ(poisoned_bytes(rx, original), 0u);
  EXPECT_EQ(fabric::PinPool::instance().live(), 0u);
}

TEST(SendBufferLifetime, CorruptFaultNeverWritesTheSendBuffer) {
  // Every wire copy gets a bit flipped, and nothing checks: reliability
  // (and with it the checksum) is off. The flip must land in a private
  // copy of the chunk, not in the application's buffer it borrows.
  WorldConfig cfg = paper_testbed("hetero-split");
  cfg.engine.reliability.enabled = false;
  core::World world(std::move(cfg));
  fabric::FaultSpec corrupt;
  corrupt.kind = fabric::FaultKind::kCorrupt;
  corrupt.rate = 1.0;
  for (RailId r = 0; r < world.fabric().rail_count(); ++r) {
    world.fabric().nic(0, r).inject_fault(corrupt);
  }
  const std::size_t size = 2_MiB;
  const auto tx = test::make_pattern(size, 32);
  const auto original = tx;
  std::vector<std::uint8_t> rx(size, 0);

  auto recv = world.engine(1).irecv(0, 14, rx.data(), size);
  auto send = world.engine(0).isend(1, 14, tx.data(), size);
  world.wait(recv);
  world.wait(send);
  world.fabric().events().run_all();

  std::uint64_t corrupted = 0;
  for (RailId r = 0; r < world.fabric().rail_count(); ++r) {
    corrupted += world.fabric().nic(0, r).segments_corrupted();
  }
  EXPECT_GT(corrupted, 0u);
  EXPECT_NE(rx, original) << "the flipped bits never reached the receiver";
  EXPECT_EQ(tx, original);
  EXPECT_EQ(fabric::PinPool::instance().live(), 0u);
}

TEST(SendBufferLifetime, DuplicatesAfterCompletionAreDroppedUnread) {
  // Every segment is duplicated one wire latency behind its original. The
  // application overwrites its buffer the instant the send completes;
  // duplicates landing after that must be dropped without reading it.
  core::World world(paper_testbed("hetero-split"));
  ASSERT_FALSE(world.engine(0).config().reliability.enabled);
  fabric::FaultSpec dup;
  dup.kind = fabric::FaultKind::kDup;
  dup.rate = 1.0;
  for (RailId r = 0; r < world.fabric().rail_count(); ++r) {
    world.fabric().nic(0, r).inject_fault(dup);
  }
  const std::size_t size = 2_MiB;
  auto tx = test::make_pattern(size, 33);
  const auto original = tx;
  std::vector<std::uint8_t> rx(size, 0);

  auto recv = world.engine(1).irecv(0, 15, rx.data(), size);
  auto send = world.engine(0).isend(1, 15, tx.data(), size);
  world.wait(send);
  std::fill(tx.begin(), tx.end(), 0xEE);
  world.fabric().events().run_all();

  EXPECT_TRUE(recv->done());
  EXPECT_EQ(rx, original);
  EXPECT_GE(world.engine(1).stats().duplicate_chunks, 1u);
  EXPECT_EQ(fabric::PinPool::instance().live(), 0u);
}

}  // namespace
}  // namespace rails::core
