// End-to-end reliable delivery (docs/FAULTS.md, "Data-plane faults &
// reliable delivery"): CRC32C verification, the per-link sequence window,
// coalesced ACK / NACK feedback, bounded retransmit with backoff, and the
// escalation into the PR 2 failover/quarantine machinery when the retry
// budget runs dry. Every scenario runs in virtual time with a seeded fault
// RNG, so the storms are exactly reproducible.
#include <gtest/gtest.h>

#include "core/world.hpp"
#include "fabric/buffer_pool.hpp"
#include "fabric/fault.hpp"
#include "telemetry/metrics.hpp"
#include "trace/flight_recorder.hpp"
#include "test_util.hpp"

namespace rails::core {
namespace {

WorldConfig reliable_testbed(const char* strategy) {
  WorldConfig cfg = paper_testbed(strategy);
  cfg.engine.reliability.enabled = true;
  return cfg;
}

fabric::FaultSpec rate_fault(fabric::FaultKind kind, double rate) {
  fabric::FaultSpec f;
  f.kind = kind;
  f.rate = rate;
  return f;
}

fabric::FaultSpec reorder_fault(unsigned window) {
  fabric::FaultSpec f;
  f.kind = fabric::FaultKind::kReorder;
  f.reorder_window = window;
  f.rate = 1.0;
  return f;
}

/// Applies `spec` to every NIC of `node` (both directions of a fault storm
/// need the faults on the sender of the traffic in question).
void fault_all_rails(World& world, NodeId node, const fabric::FaultSpec& spec) {
  for (RailId r = 0; r < static_cast<RailId>(world.fabric().rail_count()); ++r) {
    world.fabric().nic(node, r).inject_fault(spec);
  }
}

/// `count` patterned eager messages plus one patterned rendezvous transfer,
/// node 0 -> node 1, all submitted up front; drains the event queue and
/// checks byte-exact exactly-once delivery.
void run_mixed_and_verify(World& world, unsigned count, std::size_t eager_size,
                          std::size_t rdv_size) {
  std::vector<std::vector<std::uint8_t>> tx, rx;
  std::vector<RecvHandle> recvs;
  std::vector<SendHandle> sends;
  for (unsigned i = 0; i < count; ++i) {
    tx.push_back(test::make_pattern(eager_size, i));
    rx.emplace_back(eager_size, 0);
  }
  tx.push_back(test::make_pattern(rdv_size, 999));
  rx.emplace_back(rdv_size, 0);
  for (unsigned i = 0; i <= count; ++i) {
    recvs.push_back(world.engine(1).irecv(0, static_cast<Tag>(i), rx[i].data(),
                                          rx[i].size()));
  }
  for (unsigned i = 0; i <= count; ++i) {
    sends.push_back(
        world.engine(0).isend(1, static_cast<Tag>(i), tx[i].data(), tx[i].size()));
  }
  world.fabric().events().run_all();

  for (unsigned i = 0; i <= count; ++i) {
    ASSERT_TRUE(recvs[i]->done()) << "message " << i << " never completed";
    EXPECT_TRUE(sends[i]->done());
    EXPECT_EQ(recvs[i]->bytes_received, tx[i].size()) << "message " << i;
    EXPECT_EQ(rx[i], tx[i]) << "message " << i << " is not byte-exact";
  }
}

// -- zero fault rate: the reliable path must be invisible --------------------

TEST(Reliability, ZeroFaultPathIsCleanAndDrains) {
  World world(reliable_testbed("hetero-split"));
  run_mixed_and_verify(world, 16, 2048, 1_MiB);

  const auto& tx_stats = world.engine(0).stats();
  const auto& rx_stats = world.engine(1).stats();
  EXPECT_GT(tx_stats.rel_segments, 0u);
  EXPECT_GT(rx_stats.rel_acks, 0u);
  EXPECT_EQ(tx_stats.rel_retransmits, 0u);
  EXPECT_EQ(tx_stats.rel_drops_inferred, 0u);
  EXPECT_EQ(tx_stats.rel_retry_exhausted, 0u);
  EXPECT_EQ(rx_stats.rel_corruptions, 0u);
  EXPECT_EQ(rx_stats.rel_dup_suppressed, 0u);
  EXPECT_EQ(rx_stats.rel_nacks, 0u);
  // Every parked retransmit copy was retired by the ACK stream.
  EXPECT_EQ(world.engine(0).reliable_in_flight(), 0u);
  EXPECT_EQ(world.engine(1).reliable_in_flight(), 0u);
}

TEST(Reliability, AcksAreCoalesced) {
  World world(reliable_testbed("aggregate-fastest"));
  run_mixed_and_verify(world, 32, 512, 256_KiB);
  // One delayed ACK covers a run of sequence numbers: far fewer ACKs than
  // sequenced segments, or the feedback channel would double segment load.
  EXPECT_GT(world.engine(1).stats().rel_acks, 0u);
  EXPECT_LT(world.engine(1).stats().rel_acks, world.engine(0).stats().rel_segments);
}

// -- single fault kinds ------------------------------------------------------

TEST(Reliability, SilentDropsAreInferredAndRetransmitted) {
  World world(reliable_testbed("hetero-split"));
  // Every rail out of node 0 eats a quarter of what it sends: wherever the
  // strategy routes a segment, its loss is only repairable by the ACK
  // timeout inferring the drop and retransmitting from the parked copy.
  // Sequential rounds (not one burst) so aggregation cannot collapse the
  // whole workload into a handful of giant segments that happen to survive.
  fault_all_rails(world, 0, rate_fault(fabric::FaultKind::kDrop, 0.25));

  for (unsigned round = 0; round < 16; ++round) {
    const auto tx = test::make_pattern(2048, round);
    std::vector<std::uint8_t> rx(2048, 0);
    auto recv = world.engine(1).irecv(0, static_cast<Tag>(round), rx.data(), 2048);
    auto send =
        world.engine(0).isend(1, static_cast<Tag>(round), tx.data(), tx.size());
    world.fabric().events().run_all();
    ASSERT_TRUE(recv->done()) << "round " << round;
    ASSERT_TRUE(send->done()) << "round " << round;
    EXPECT_EQ(rx, tx) << "round " << round;
  }
  run_mixed_and_verify(world, 8, 2048, 1_MiB);

  const auto& stats = world.engine(0).stats();
  EXPECT_GT(world.fabric().nic(0, 0).segments_silently_dropped() +
                world.fabric().nic(0, 1).segments_silently_dropped(),
            0u);
  EXPECT_GT(stats.rel_drops_inferred, 0u);
  EXPECT_GT(stats.rel_retransmits, 0u);
  EXPECT_EQ(stats.rel_retry_exhausted, 0u);
  EXPECT_EQ(world.engine(0).reliable_in_flight(), 0u);
}

TEST(Reliability, CorruptionIsDetectedNackedAndRepaired) {
  World world(reliable_testbed("hetero-split"));
  fault_all_rails(world, 0, rate_fault(fabric::FaultKind::kCorrupt, 0.5));

  run_mixed_and_verify(world, 24, 2048, 512_KiB);

  EXPECT_GT(world.fabric().nic(0, 0).segments_corrupted() +
                world.fabric().nic(0, 1).segments_corrupted(),
            0u);
  // The receiver's CRC caught every flipped bit (the payloads verified
  // byte-exact above), NACKed, and the sender repaired from its parked copy.
  EXPECT_GT(world.engine(1).stats().rel_corruptions, 0u);
  EXPECT_GT(world.engine(1).stats().rel_nacks, 0u);
  EXPECT_GT(world.engine(0).stats().rel_retransmits, 0u);
  EXPECT_EQ(world.engine(0).reliable_in_flight(), 0u);
}

TEST(Reliability, CorruptFaultNeverWritesTheParkedBytes) {
  // The retransmit ring parks the segment's own bytes, shared, not a copy.
  // A corrupt fault on the first transmission must flip a bit in a private
  // copy: the receiver NACKs, and the retransmit sends the parked bytes,
  // which must still be the original (it passes the same checksum).
  World world(reliable_testbed("aggregate-fastest"));
  const auto corrupt_first_transmission = [&world](Tag tag) {
    SCOPED_TRACE(::testing::Message() << "tag " << tag);
    fabric::FaultSpec corrupt = rate_fault(fabric::FaultKind::kCorrupt, 1.0);
    corrupt.at = world.now();
    corrupt.duration = usec(2);  // the first transmission, not the retransmit
    fault_all_rails(world, 0, corrupt);
    const EngineStats sender = world.engine(0).stats();
    const EngineStats receiver = world.engine(1).stats();
    const auto tx = test::make_pattern(2048, tag);
    std::vector<std::uint8_t> rx(tx.size(), 0);
    auto recv = world.engine(1).irecv(0, tag, rx.data(), rx.size());
    auto send = world.engine(0).isend(1, tag, tx.data(), tx.size());
    world.fabric().events().run_all();

    ASSERT_TRUE(recv->done());
    EXPECT_TRUE(send->done());
    EXPECT_EQ(rx, tx);
    EXPECT_EQ(world.engine(1).stats().rel_corruptions, receiver.rel_corruptions + 1)
        << "the retransmit failed its checksum: the parked bytes were written";
    EXPECT_EQ(world.engine(1).stats().rel_nacks, receiver.rel_nacks + 1);
    EXPECT_EQ(world.engine(0).stats().rel_retransmits, sender.rel_retransmits + 1);
    EXPECT_EQ(world.engine(0).reliable_in_flight(), 0u);
  };
  corrupt_first_transmission(1);  // warms the pools to this scenario's peak
  const std::size_t pooled_before = fabric::BufferPool::instance().pooled();
  const std::size_t pins_before = fabric::PinPool::instance().live();
  corrupt_first_transmission(2);

  std::uint64_t corrupted = 0;
  for (RailId r = 0; r < world.fabric().rail_count(); ++r) {
    corrupted += world.fabric().nic(0, r).segments_corrupted();
  }
  EXPECT_EQ(corrupted, 2u);
  EXPECT_EQ(fabric::PinPool::instance().live(), pins_before);
  EXPECT_EQ(fabric::BufferPool::instance().pooled(), pooled_before);
}

TEST(Reliability, ParseRejectsAreRecordedUnderTheirOwnKind) {
  // With reliability (and its wire checksum) off, a bit flipped inside a
  // sub-packet header reaches the unpacker, which drops the frame. That
  // drop is a parse reject, not a CRC-detected corruption: each flight
  // record kind must match its own counter.
  World world(paper_testbed("hetero-split"));
  ASSERT_FALSE(world.engine(0).config().reliability.enabled);
  telemetry::MetricsRegistry registry;
  trace::FlightRecorder recorder(1 << 16);
  for (NodeId n = 0; n < 2; ++n) {
    world.engine(n).set_metrics(&registry);
    world.engine(n).set_flight_recorder(&recorder);
  }
  fault_all_rails(world, 0, rate_fault(fabric::FaultKind::kCorrupt, 0.5));

  // 8-byte messages: the 36-byte sub-packet header is most of each frame.
  // Receives hold any eager message, so a flipped message length is either
  // within capacity or above the rendezvous threshold (a parse reject).
  const auto tx = test::make_pattern(8, 1);
  std::vector<std::uint8_t> rx(1_MiB);
  ASSERT_LE(world.engine(1).rdv_threshold(), rx.size());
  for (Tag tag = 0; tag < 200; ++tag) {
    world.engine(1).irecv(0, tag, rx.data(), rx.size());
    world.engine(0).isend(1, tag, tx.data(), tx.size());
    world.fabric().events().run_all();
  }
  const std::uint64_t rejects = world.engine(1).stats().parse_rejects;
  ASSERT_GT(rejects, 0u);

  std::uint64_t corrupt_records = 0;
  std::uint64_t reject_records = 0;
  for (const auto& r : recorder.snapshot()) {
    const std::string kind = trace::to_string(r.kind);
    corrupt_records += kind == "corrupt-detected" ? 1 : 0;
    reject_records += kind == "parse-reject" ? 1 : 0;
  }
  EXPECT_EQ(recorder.evictions(), 0u);
  const telemetry::Counter* corruptions =
      registry.find_counter("engine.reliability.corruptions");
  ASSERT_NE(corruptions, nullptr);
  EXPECT_EQ(corrupt_records, corruptions->value());
  EXPECT_EQ(reject_records, world.engine(0).stats().parse_rejects + rejects);
  for (NodeId n = 0; n < 2; ++n) {
    world.engine(n).set_flight_recorder(nullptr);
    world.engine(n).set_metrics(nullptr);
  }
}

TEST(Reliability, DuplicatesAreSuppressedExactlyOnce) {
  World world(reliable_testbed("hetero-split"));
  // EVERY data segment arrives twice; bytes_received checked by the helper
  // pins that no duplicate was counted into a completion.
  fault_all_rails(world, 0, rate_fault(fabric::FaultKind::kDup, 1.0));

  run_mixed_and_verify(world, 16, 2048, 512_KiB);

  EXPECT_GT(world.fabric().nic(0, 0).segments_duplicated(), 0u);
  EXPECT_GT(world.engine(1).stats().rel_dup_suppressed, 0u);
  EXPECT_EQ(world.engine(1).stats().rel_corruptions, 0u);
}

TEST(Reliability, ReorderingIsToleratedByTheSequenceWindow) {
  World world(reliable_testbed("aggregate-fastest"));
  fault_all_rails(world, 0, reorder_fault(4));

  run_mixed_and_verify(world, 32, 1024, 256_KiB);

  EXPECT_GT(world.fabric().nic(0, 0).segments_reordered() +
                world.fabric().nic(0, 1).segments_reordered(),
            0u);
  EXPECT_EQ(world.engine(0).stats().rel_retry_exhausted, 0u);
  EXPECT_EQ(world.engine(0).reliable_in_flight(), 0u);
}

// -- mixed storm -------------------------------------------------------------

TEST(Reliability, MixedFaultStormStillDeliversExactlyOnce) {
  World world(reliable_testbed("hetero-split"));
  // Faults on every NIC of both nodes: the ACK/NACK feedback path suffers
  // the same storm as the data it acknowledges.
  for (NodeId n = 0; n < 2; ++n) {
    fault_all_rails(world, n, rate_fault(fabric::FaultKind::kDrop, 0.02));
    fault_all_rails(world, n, rate_fault(fabric::FaultKind::kCorrupt, 0.01));
    fault_all_rails(world, n, rate_fault(fabric::FaultKind::kDup, 0.05));
    fault_all_rails(world, n, reorder_fault(4));
  }

  run_mixed_and_verify(world, 48, 2048, 1_MiB);

  EXPECT_EQ(world.engine(0).stats().rel_retry_exhausted, 0u);
  EXPECT_EQ(world.engine(1).stats().rel_retry_exhausted, 0u);
  EXPECT_EQ(world.engine(0).reliable_in_flight(), 0u);
  EXPECT_EQ(world.engine(1).reliable_in_flight(), 0u);
}

TEST(Reliability, FaultStormIsDeterministicUnderAFixedSeed) {
  const auto run_once = [](std::uint64_t seed) {
    WorldConfig cfg = reliable_testbed("hetero-split");
    cfg.fabric.fault_seed = seed;
    World world(std::move(cfg));
    fault_all_rails(world, 0, rate_fault(fabric::FaultKind::kDrop, 0.1));
    fault_all_rails(world, 0, rate_fault(fabric::FaultKind::kDup, 0.1));
    run_mixed_and_verify(world, 24, 2048, 512_KiB);
    return std::tuple{world.now(), world.engine(0).stats().rel_retransmits,
                      world.engine(0).stats().rel_drops_inferred,
                      world.engine(1).stats().rel_dup_suppressed};
  };
  EXPECT_EQ(run_once(7), run_once(7));
  // A different seed draws a different storm (same workload, so any
  // divergence must come from the fault RNG).
  EXPECT_NE(run_once(7), run_once(8));
}

// -- escalation into PR 2 failover/quarantine --------------------------------

TEST(Reliability, LossStreakHandsTheSickRailToQuarantine) {
  World world(reliable_testbed("hetero-split"));
  // Rail 0 is a black hole for data; the link itself reports "up", so only
  // the loss-streak escalation can take it out of service.
  world.fabric().nic(0, 0).inject_fault(rate_fault(fabric::FaultKind::kDrop, 1.0));

  run_mixed_and_verify(world, 12, 2048, 512_KiB);

  EXPECT_GE(world.engine(0).stats().quarantines, 1u);
  EXPECT_GT(world.engine(0).stats().rel_retransmits, 0u);
  EXPECT_EQ(world.engine(0).stats().rel_retry_exhausted, 0u);
}

TEST(Reliability, RetryBudgetExhaustionFailsTheSendInsteadOfHanging) {
  World world(reliable_testbed("hetero-split"));
  trace::FlightRecorder recorder;
  world.engine(0).set_flight_recorder(&recorder);
  // Every rail out of node 0 drops everything: no handshake can ever land,
  // so the retry budget must fire and fail the send outright.
  fault_all_rails(world, 0, rate_fault(fabric::FaultKind::kDrop, 1.0));

  const std::size_t size = 256_KiB;
  const auto tx = test::make_pattern(size, 3);
  std::vector<std::uint8_t> rx(size, 0);
  auto recv = world.engine(1).irecv(0, 1, rx.data(), size);
  auto send = world.engine(0).isend(1, 1, tx.data(), size);
  world.fabric().events().run_all();  // must terminate — pin for the no-hang guarantee

  EXPECT_TRUE(send->failed());
  EXPECT_FALSE(recv->done());
  const auto& stats = world.engine(0).stats();
  EXPECT_GE(stats.rel_retry_exhausted, 1u);
  EXPECT_GE(stats.quarantines, 1u);
  EXPECT_EQ(world.engine(0).reliable_in_flight(), 0u);

  // The exhaustion left a postmortem trail in the flight recorder.
  bool saw_exhaustion = false;
  for (const auto& r : recorder.snapshot()) {
    if (r.kind == trace::EventKind::kRetryExhausted) saw_exhaustion = true;
  }
  EXPECT_TRUE(saw_exhaustion);
  world.engine(0).set_flight_recorder(nullptr);
}

TEST(Reliability, TxErrorOnSequencedSegmentRetransmitsWithoutResplit) {
  World world(reliable_testbed("hetero-split"));
  // Fail-stop mid-transfer: in-flight chunks surface as completion-queue
  // errors. With reliability on, the parked-copy retransmit owns recovery —
  // the PR 2 byte-range re-split must stay out of the way (one repair path,
  // not two competing ones).
  fabric::FaultSpec fail;
  fail.kind = fabric::FaultKind::kFailStop;
  fail.at = usec(20);
  world.fabric().nic(0, 0).inject_fault(fail);

  const std::size_t size = 4_MiB;
  const auto tx = test::make_pattern(size, 4);
  std::vector<std::uint8_t> rx(size, 0);
  auto recv = world.engine(1).irecv(0, 1, rx.data(), size);
  auto send = world.engine(0).isend(1, 1, tx.data(), size);
  world.fabric().events().run_all();

  ASSERT_TRUE(recv->done());
  EXPECT_TRUE(send->done());
  EXPECT_EQ(rx, tx);
  const auto& stats = world.engine(0).stats();
  EXPECT_GE(stats.tx_errors, 1u);
  EXPECT_GE(stats.quarantines, 1u);
  EXPECT_GE(stats.rel_retransmits, 1u);
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(stats.chunk_timeouts, 0u);  // the ACK timeout owns loss detection
}

// -- receiver dedup with reliability OFF (the PR 2 audit) --------------------

TEST(Reliability, DuplicatedControlSegmentsAreToleratedWithoutReliability) {
  // The sequence window is off, so raw wire duplicates reach the protocol
  // handlers: a duplicate RTS must not double-match, a duplicate CTS must
  // not restart streaming, a duplicate FIN must not double-complete a
  // recycled send, and duplicate DATA must not double-count bytes.
  World world(paper_testbed("hetero-split"));
  ASSERT_FALSE(world.engine(0).config().reliability.enabled);
  fault_all_rails(world, 0, rate_fault(fabric::FaultKind::kDup, 1.0));
  fault_all_rails(world, 1, rate_fault(fabric::FaultKind::kDup, 1.0));

  const std::size_t size = 1_MiB;
  const auto tx = test::make_pattern(size, 5);
  std::vector<std::uint8_t> rx(size, 0);
  auto recv = world.engine(1).irecv(0, 1, rx.data(), size);
  auto send = world.engine(0).isend(1, 1, tx.data(), size);
  world.fabric().events().run_all();

  ASSERT_TRUE(recv->done());
  EXPECT_TRUE(send->done());
  EXPECT_EQ(rx, tx);
  EXPECT_EQ(recv->bytes_received, size);
  // Every duplicate was absorbed by a dedup path and counted, not crashed on.
  EXPECT_GT(world.engine(1).stats().duplicate_chunks, 0u);
  EXPECT_GT(world.engine(0).stats().stale_control +
                world.engine(1).stats().stale_control,
            0u);
}

}  // namespace
}  // namespace rails::core
