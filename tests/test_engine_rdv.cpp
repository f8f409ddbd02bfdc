#include <algorithm>

#include <gtest/gtest.h>

#include "core/world.hpp"
#include "fabric/payload.hpp"
#include "test_util.hpp"

namespace rails::core {
namespace {

class RdvEngineTest : public ::testing::TestWithParam<const char*> {
 protected:
  RdvEngineTest() : world_(paper_testbed(GetParam())) {}
  core::World world_;
};

TEST_P(RdvEngineTest, LargeMessageIntegrity) {
  const std::size_t size = 2_MiB;
  const auto tx = test::make_pattern(size, 99);
  std::vector<std::uint8_t> rx(size, 0);
  auto recv = world_.engine(1).irecv(0, 1, rx.data(), size);
  auto send = world_.engine(0).isend(1, 1, tx.data(), size);
  world_.wait(recv);
  world_.wait(send);
  EXPECT_TRUE(send->rendezvous);
  EXPECT_EQ(rx, tx);
}

TEST_P(RdvEngineTest, OddSizesIntegrity) {
  for (std::size_t size : {65537ul, 100001ul, 1048577ul}) {
    const auto tx = test::make_pattern(size, size);
    std::vector<std::uint8_t> rx(size, 0);
    auto recv = world_.engine(1).irecv(0, 2, rx.data(), size);
    auto send = world_.engine(0).isend(1, 2, tx.data(), size);
    world_.wait(recv);
    world_.wait(send);
    EXPECT_EQ(rx, tx) << "size " << size;
  }
}

TEST_P(RdvEngineTest, UnexpectedRtsWaitsForRecv) {
  const std::size_t size = 1_MiB;
  const auto tx = test::make_pattern(size, 5);
  std::vector<std::uint8_t> rx(size, 0);
  auto send = world_.engine(0).isend(1, 3, tx.data(), size);
  world_.fabric().events().run_all();  // RTS arrives, no recv posted
  EXPECT_FALSE(send->done());
  auto recv = world_.engine(1).irecv(0, 3, rx.data(), size);
  world_.wait(recv);
  world_.wait(send);
  EXPECT_EQ(rx, tx);
}

TEST_P(RdvEngineTest, SenderCompletesOnlyAfterDelivery) {
  // Rendezvous completion is remote: the FIN arrives after the receiver got
  // every byte, so the receiver can never still be incomplete when the
  // sender finishes.
  const std::size_t size = 4_MiB;
  const auto tx = test::make_pattern(size, 6);
  std::vector<std::uint8_t> rx(size, 0);
  auto recv = world_.engine(1).irecv(0, 4, rx.data(), size);
  auto send = world_.engine(0).isend(1, 4, tx.data(), size);
  world_.wait(send);
  EXPECT_TRUE(recv->done());
  EXPECT_GE(send->complete_time, recv->complete_time);
}

TEST_P(RdvEngineTest, ConcurrentRendezvous) {
  const std::size_t size = 512_KiB;
  std::vector<std::vector<std::uint8_t>> tx;
  std::vector<std::vector<std::uint8_t>> rx(4, std::vector<std::uint8_t>(size));
  std::vector<RecvHandle> recvs;
  std::vector<SendHandle> sends;
  for (int i = 0; i < 4; ++i) {
    tx.push_back(test::make_pattern(size, 50 + i));
    recvs.push_back(world_.engine(1).irecv(0, 10 + i, rx[i].data(), size));
  }
  for (int i = 0; i < 4; ++i) {
    sends.push_back(world_.engine(0).isend(1, 10 + i, tx[i].data(), size));
  }
  for (auto& r : recvs) world_.wait(r);
  for (auto& s : sends) world_.wait(s);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(rx[i], tx[i]) << "message " << i;
}

TEST_P(RdvEngineTest, StatsCountRendezvous) {
  const std::size_t size = 1_MiB;
  const auto tx = test::make_pattern(size, 1);
  std::vector<std::uint8_t> rx(size);
  auto recv = world_.engine(1).irecv(0, 1, rx.data(), size);
  auto send = world_.engine(0).isend(1, 1, tx.data(), size);
  world_.wait(send);
  (void)recv;
  const auto& stats = world_.engine(0).stats();
  EXPECT_EQ(stats.rdv_msgs, 1u);
  EXPECT_GE(stats.rdv_chunks, 1u);
  EXPECT_EQ(send->chunk_count, stats.rdv_chunks);
}

INSTANTIATE_TEST_SUITE_P(Strategies, RdvEngineTest,
                         ::testing::Values("single-rail:0", "single-rail:1",
                                           "greedy-balance", "aggregate-fastest",
                                           "iso-split", "fixed-ratio-split",
                                           "hetero-split", "multicore-hetero-split"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-' || c == ':') c = '_';
                           }
                           return name;
                         });

TEST(RdvChunks, HeteroSplitUsesBothRailsWithMyriMajority) {
  core::World world(paper_testbed("hetero-split"));
  const std::size_t size = 4_MiB;
  const auto tx = test::make_pattern(size, 1);
  std::vector<std::uint8_t> rx(size);
  auto recv = world.engine(1).irecv(0, 1, rx.data(), size);
  auto send = world.engine(0).isend(1, 1, tx.data(), size);
  world.wait(send);
  (void)recv;
  EXPECT_EQ(send->chunk_count, 2u);
  const auto& per_rail = world.engine(0).stats().payload_bytes_per_rail;
  // Rail 0 (Myri-10G, faster DMA) carries the larger share — the §IV-A
  // example splits 4 MB into roughly 2437 KB / 1757 KB.
  EXPECT_GT(per_rail[0], per_rail[1]);
  EXPECT_GT(per_rail[1], size / 3);
}

TEST(RdvChunks, IsoSplitIsEqual) {
  core::World world(paper_testbed("iso-split"));
  const std::size_t size = 4_MiB;
  const auto tx = test::make_pattern(size, 2);
  std::vector<std::uint8_t> rx(size);
  auto recv = world.engine(1).irecv(0, 1, rx.data(), size);
  auto send = world.engine(0).isend(1, 1, tx.data(), size);
  world.wait(send);
  (void)recv;
  const auto& per_rail = world.engine(0).stats().payload_bytes_per_rail;
  EXPECT_EQ(per_rail[0], per_rail[1]);
}

TEST(RdvChunks, SingleRailKeepsEverythingOnOneRail) {
  // Data and control alike: the DMA chunk, an eager send, and the RTS, CTS
  // and FIN (plus the ACKs, with reliability on) that follow
  // Strategy::control_rail all stay on the strategy's one rail, both ways.
  for (const bool reliable : {false, true}) {
    SCOPED_TRACE(reliable ? "reliability on" : "reliability off");
    WorldConfig cfg = paper_testbed("single-rail:1");
    cfg.engine.reliability.enabled = reliable;
    core::World world(cfg);
    const std::size_t size = 2_MiB;
    const auto tx = test::make_pattern(size, 3);
    std::vector<std::uint8_t> rx(size);
    const auto small_tx = test::make_pattern(512, 4);
    std::vector<std::uint8_t> small_rx(512);
    auto recv = world.engine(1).irecv(0, 1, rx.data(), size);
    auto small_recv = world.engine(1).irecv(0, 2, small_rx.data(), small_rx.size());
    auto send = world.engine(0).isend(1, 1, tx.data(), size);
    world.wait(send);
    EXPECT_EQ(world.engine(0).stats().payload_bytes_per_rail[1], size);
    auto small = world.engine(0).isend(1, 2, small_tx.data(), small_tx.size());
    world.wait(recv);
    world.wait(small_recv);
    world.fabric().events().run_all();  // trailing coalesced ACKs
    EXPECT_FALSE(small->rendezvous);
    EXPECT_EQ(rx, tx);
    EXPECT_EQ(small_rx, small_tx);
    for (NodeId n = 0; n < 2; ++n) {
      const EngineStats& stats = world.engine(n).stats();
      EXPECT_EQ(stats.segments_per_rail[0], 0u) << "node " << n;
      EXPECT_EQ(stats.payload_bytes_per_rail[0], 0u) << "node " << n;
    }
    // RTS + chunk + eager one way, CTS + FIN the other; ACKs on top.
    EXPECT_GE(world.engine(0).stats().segments_per_rail[1], 3u);
    EXPECT_GE(world.engine(1).stats().segments_per_rail[1], 2u);
    EXPECT_EQ(world.engine(1).stats().rel_acks > 0, reliable);
  }
}

TEST(RdvPlacement, LargeChunksSplitAcrossCoresKeepBytesAndCompletionTime) {
  // An 8 MiB message into an 8 MiB receive buffer: its chunks are streamed
  // and, past 1 MiB, split across the host's cores (common/stream_copy.hpp).
  // Placement moves host bytes only, so the bytes and the virtual
  // completion times are those of the single-core copy, which these
  // constants record. A second message reuses the helpers.
  struct Expected {
    bool reliable;
    SimTime recv_done;
    SimTime send_done;
  };
  for (const Expected& want :
       {Expected{false, 4189249, 4190949}, Expected{true, 4189249, 4190949}}) {
    SCOPED_TRACE(want.reliable ? "reliability on" : "reliability off");
    WorldConfig cfg = paper_testbed("hetero-split");
    cfg.engine.reliability.enabled = want.reliable;
    core::World world(cfg);
    const std::size_t size = 8_MiB;
    for (Tag tag = 1; tag <= 2; ++tag) {
      const auto tx = test::make_pattern(size, 80 + tag);
      std::vector<std::uint8_t> rx(size, 0);
      const SimTime start = world.now();
      auto recv = world.engine(1).irecv(0, tag, rx.data(), size);
      auto send = world.engine(0).isend(1, tag, tx.data(), size);
      world.wait(recv);
      world.wait(send);
      EXPECT_TRUE(send->rendezvous);
      EXPECT_EQ(rx, tx) << "message " << tag;
      EXPECT_EQ(recv->complete_time - start, want.recv_done) << "message " << tag;
      EXPECT_EQ(send->complete_time - start, want.send_done) << "message " << tag;
    }
  }
}

// -- send-buffer contract (docs/PROTOCOL.md) ---------------------------------

TEST(RdvSendBuffer, ChunksBorrowThroughAPinUntilCompletion) {
  // DMA chunks read the send buffer in place in both modes: the send holds
  // one pin while streaming and ends the loan at FIN. With reliability on
  // the chunks' parked retransmit entries borrow it too; their ACKs are
  // still out at FIN, so there they take bytes of their own instead of
  // making the loan end in a whole-message rescue copy.
  for (const bool reliable : {false, true}) {
    SCOPED_TRACE(reliable ? "reliability on" : "reliability off");
    WorldConfig cfg = paper_testbed("hetero-split");
    cfg.engine.reliability.enabled = reliable;
    core::World world(cfg);
    const std::size_t size = 4_MiB;
    const auto original = test::make_pattern(size, 41);
    std::vector<std::uint8_t> tx = original;
    std::vector<std::uint8_t> rx(size, 0);
    const std::uint64_t rescues = fabric::PinPool::instance().rescues();
    auto recv = world.engine(1).irecv(0, 1, rx.data(), size);
    auto send = world.engine(0).isend(1, 1, tx.data(), size);
    ASSERT_TRUE(world.fabric().events().run_until(
        [&] { return send->state == SendState::kStreaming; }));
    EXPECT_NE(send->pin, nullptr);
    EXPECT_EQ(fabric::PinPool::instance().live(), 1u);
    world.wait(recv);
    world.wait(send);
    EXPECT_EQ(send->pin, nullptr);
    EXPECT_EQ(fabric::PinPool::instance().rescues(), rescues);
    if (reliable) {
      // The chunks' entries outlived the loan: they own their bytes now.
      EXPECT_GE(world.engine(0).reliable_in_flight(), 1u);
      EXPECT_GE(fabric::PinPool::instance().live(), 1u);
    }
    std::fill(tx.begin(), tx.end(), 0);  // the application reuses its buffer
    world.fabric().events().run_all();
    EXPECT_EQ(rx, original);
    EXPECT_EQ(world.engine(0).reliable_in_flight(), 0u);
    EXPECT_EQ(fabric::PinPool::instance().live(), 0u);
  }
}

fabric::FaultSpec wire_fault(fabric::FaultKind kind, SimTime at, SimDuration duration) {
  fabric::FaultSpec f;
  f.kind = kind;
  f.at = at;
  f.duration = duration;
  f.rate = 1.0;
  return f;
}

TEST(RdvSendBuffer, DataRetransmittedAfterFinCarriesTheOriginalBytes) {
  // Reliability on. The receiver's coalesced ACK for the chunks is lost, so
  // their entries are still parked when FIN completes the send; the
  // application then overwrites its buffer, and the ACK timeout retransmits
  // every chunk. The retransmits must carry the bytes the CRC was computed
  // over (no corruption detected) without a rescue copy of the message.
  WorldConfig cfg = paper_testbed("hetero-split");
  cfg.engine.reliability.enabled = true;
  core::World world(cfg);
  const std::size_t size = 4_MiB;
  const auto original = test::make_pattern(size, 42);
  std::vector<std::uint8_t> tx = original;
  std::vector<std::uint8_t> rx(size, 0);
  const std::uint64_t rescues = fabric::PinPool::instance().rescues();
  auto recv = world.engine(1).irecv(0, 1, rx.data(), size);
  auto send = world.engine(0).isend(1, 1, tx.data(), size);
  world.wait(recv);
  // FIN is on the wire; everything node 1 sends for the next 100 us is
  // lost, the coalesced ACK included.
  for (RailId r = 0; r < world.fabric().rail_count(); ++r) {
    world.fabric().nic(1, r).inject_fault(
        wire_fault(fabric::FaultKind::kDrop, world.now(), usec(100)));
  }
  world.wait(send);
  const std::uint64_t parked = world.engine(0).reliable_in_flight();
  EXPECT_GE(parked, 1u);
  EXPECT_EQ(fabric::PinPool::instance().rescues(), rescues);
  const std::uint64_t retransmits = world.engine(0).stats().rel_retransmits;
  std::fill(tx.begin(), tx.end(), 0xEE);
  world.fabric().events().run_all();

  EXPECT_GE(world.engine(0).stats().rel_retransmits, retransmits + parked);
  EXPECT_GE(world.engine(1).stats().rel_dup_suppressed, parked);
  EXPECT_EQ(world.engine(1).stats().rel_corruptions, 0u);
  EXPECT_EQ(world.engine(1).stats().rel_nacks, 0u);
  EXPECT_EQ(rx, original);
  EXPECT_EQ(world.engine(0).reliable_in_flight(), 0u);
  EXPECT_EQ(fabric::PinPool::instance().live(), 0u);
}

TEST(RdvSendBuffer, DuplicateInFlightAtFinIsRescued) {
  // Reliability on, every segment out of node 0 duplicated: a chunk's
  // trailing copy is still on the wire when FIN completes the send, and it
  // is checksummed on arrival. Ending the loan therefore copies the message
  // into the pin, and the overwritten buffer never reaches the receiver.
  WorldConfig cfg = paper_testbed("hetero-split");
  cfg.engine.reliability.enabled = true;
  core::World world(cfg);
  for (RailId r = 0; r < world.fabric().rail_count(); ++r) {
    world.fabric().nic(0, r).inject_fault(wire_fault(fabric::FaultKind::kDup, 0, 0));
  }
  const std::size_t size = 4_MiB;
  const auto original = test::make_pattern(size, 43);
  std::vector<std::uint8_t> tx = original;
  std::vector<std::uint8_t> rx(size, 0);
  const std::uint64_t rescues = fabric::PinPool::instance().rescues();
  auto recv = world.engine(1).irecv(0, 1, rx.data(), size);
  auto send = world.engine(0).isend(1, 1, tx.data(), size);
  world.wait(send);
  EXPECT_EQ(fabric::PinPool::instance().rescues(), rescues + 1);
  std::fill(tx.begin(), tx.end(), 0xEE);
  world.fabric().events().run_all();

  EXPECT_TRUE(recv->done());
  EXPECT_EQ(rx, original);
  EXPECT_GE(world.engine(1).stats().rel_dup_suppressed, 1u);
  EXPECT_EQ(world.engine(1).stats().rel_corruptions, 0u);
  EXPECT_EQ(fabric::PinPool::instance().live(), 0u);
}

TEST(RdvSendBuffer, ConcurrentSendsEachReleaseTheirPin) {
  core::World world(paper_testbed("hetero-split"));
  constexpr int kSends = 6;
  const std::size_t size = 1_MiB;
  std::vector<std::vector<std::uint8_t>> tx;
  std::vector<std::vector<std::uint8_t>> rx(kSends, std::vector<std::uint8_t>(size, 0));
  std::vector<RecvHandle> recvs;
  std::vector<SendHandle> sends;
  for (int i = 0; i < kSends; ++i) {
    tx.push_back(test::make_pattern(size, 50 + i));
    recvs.push_back(world.engine(1).irecv(0, static_cast<Tag>(i), rx[i].data(), size));
    sends.push_back(world.engine(0).isend(1, static_cast<Tag>(i), tx[i].data(), size));
  }
  world.fabric().events().run_all();
  for (int i = 0; i < kSends; ++i) {
    EXPECT_TRUE(sends[i]->done());
    EXPECT_EQ(rx[i], tx[i]) << "send " << i;
  }
  EXPECT_EQ(fabric::PinPool::instance().live(), 0u);
}

}  // namespace
}  // namespace rails::core
