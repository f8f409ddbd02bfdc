// Edge cases of the engine's protocol machinery: segment caps, threshold
// boundaries, capacity guards, multi-destination scheduling, overrides.
#include <algorithm>

#include <gtest/gtest.h>

#include "core/world.hpp"
#include "fabric/presets.hpp"
#include "test_util.hpp"

namespace rails::core {
namespace {

TEST(EngineEdge, MessageExactlyAtThresholdStaysEager) {
  core::World world(paper_testbed("aggregate-fastest"));
  const std::size_t th = world.engine(0).rdv_threshold();
  const auto tx = test::make_pattern(th, 1);
  std::vector<std::uint8_t> rx(th);
  auto recv = world.engine(1).irecv(0, 1, rx.data(), th);
  auto send = world.engine(0).isend(1, 1, tx.data(), th);
  world.wait(recv);
  EXPECT_FALSE(send->rendezvous);
  EXPECT_EQ(rx, tx);
}

TEST(EngineEdge, MessageOneOverThresholdGoesRendezvous) {
  core::World world(paper_testbed("aggregate-fastest"));
  const std::size_t size = world.engine(0).rdv_threshold() + 1;
  const auto tx = test::make_pattern(size, 2);
  std::vector<std::uint8_t> rx(size);
  auto recv = world.engine(1).irecv(0, 1, rx.data(), size);
  auto send = world.engine(0).isend(1, 1, tx.data(), size);
  world.wait(recv);
  world.wait(send);
  EXPECT_TRUE(send->rendezvous);
  EXPECT_EQ(rx, tx);
}

TEST(EngineEdge, ThresholdOverrideForcesRendezvous) {
  core::WorldConfig cfg = paper_testbed("hetero-split");
  cfg.engine.rdv_threshold_override = 256;
  core::World world(cfg);
  EXPECT_EQ(world.engine(0).rdv_threshold(), 256u);
  const auto tx = test::make_pattern(1024, 3);
  std::vector<std::uint8_t> rx(1024);
  auto recv = world.engine(1).irecv(0, 1, rx.data(), 1024);
  auto send = world.engine(0).isend(1, 1, tx.data(), 1024);
  world.wait(send);
  (void)recv;
  EXPECT_TRUE(send->rendezvous);
  EXPECT_EQ(rx, tx);
}

TEST(EngineEdge, BurstLargerThanSegmentCapSplitsSegments) {
  // 3 x 24 KiB aggregates to 72 KiB, above the 64 KiB max_eager: the packer
  // must produce multiple segments, all delivered intact.
  core::World world(paper_testbed("single-rail:0"));
  const std::size_t size = 24_KiB;
  std::vector<std::vector<std::uint8_t>> tx;
  std::vector<std::vector<std::uint8_t>> rx(3, std::vector<std::uint8_t>(size));
  std::vector<RecvHandle> recvs;
  for (int i = 0; i < 3; ++i) {
    tx.push_back(test::make_pattern(size, 70 + i));
    recvs.push_back(world.engine(1).irecv(0, i, rx[i].data(), size));
  }
  for (int i = 0; i < 3; ++i) world.engine(0).isend(1, i, tx[i].data(), size);
  for (auto& r : recvs) world.wait(r);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(rx[i], tx[i]);
  EXPECT_GE(world.engine(0).stats().eager_segments, 2u);
}

TEST(EngineEdge, InterleavedDestinationsScheduleIndependently) {
  core::WorldConfig cfg = paper_testbed("aggregate-fastest");
  cfg.fabric.node_count = 3;
  core::World world(cfg);
  const auto tx = test::make_pattern(4_KiB, 4);
  std::vector<std::uint8_t> rx1(4_KiB), rx2(4_KiB);
  auto recv1 = world.engine(1).irecv(0, 1, rx1.data(), rx1.size());
  auto recv2 = world.engine(2).irecv(0, 1, rx2.data(), rx2.size());
  world.engine(0).isend(1, 1, tx.data(), tx.size());
  world.engine(0).isend(2, 1, tx.data(), tx.size());
  world.wait(recv1);
  world.wait(recv2);
  EXPECT_EQ(rx1, tx);
  EXPECT_EQ(rx2, tx);
}

TEST(EngineEdgeDeath, RecvBufferTooSmallAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::World world(paper_testbed("aggregate-fastest"));
  const auto tx = test::make_pattern(1024, 5);
  std::vector<std::uint8_t> rx(64);
  world.engine(1).irecv(0, 1, rx.data(), rx.size());
  world.engine(0).isend(1, 1, tx.data(), tx.size());
  EXPECT_DEATH(world.fabric().events().run_all(), "too small");
}

TEST(EngineEdgeDeath, SelfSendAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::World world(paper_testbed("aggregate-fastest"));
  std::uint8_t byte = 0;
  EXPECT_DEATH(world.engine(0).isend(0, 1, &byte, 1), "self-send");
}

TEST(EngineEdge, ManyTinyMessagesOneTagFifo) {
  core::World world(paper_testbed("aggregate-fastest"));
  constexpr int kCount = 32;
  std::vector<std::vector<std::uint8_t>> tx;
  std::vector<std::vector<std::uint8_t>> rx(kCount, std::vector<std::uint8_t>(64));
  std::vector<RecvHandle> recvs;
  for (int i = 0; i < kCount; ++i) {
    tx.push_back(test::make_pattern(64, 100 + i));
    recvs.push_back(world.engine(1).irecv(0, 9, rx[i].data(), 64));
  }
  for (int i = 0; i < kCount; ++i) world.engine(0).isend(1, 9, tx[i].data(), 64);
  for (auto& r : recvs) world.wait(r);
  // Same tag throughout: matching must stay FIFO even across aggregation.
  for (int i = 0; i < kCount; ++i) EXPECT_EQ(rx[i], tx[i]) << "message " << i;
}

TEST(EngineEdge, RecvPostedLongAfterTraffic) {
  core::World world(paper_testbed("hetero-split"));
  const auto tx = test::make_pattern(512, 6);
  auto send = world.engine(0).isend(1, 1, tx.data(), tx.size());
  world.fabric().events().run_all();
  EXPECT_TRUE(send->done());
  // A full quiesce later, the unexpected store still delivers.
  std::vector<std::uint8_t> rx(512);
  auto recv = world.engine(1).irecv(0, 1, rx.data(), rx.size());
  EXPECT_TRUE(recv->done());
  EXPECT_EQ(rx, tx);
}

TEST(EngineEdge, UnexpectedRendezvousAndEagerMatchInSendOrder) {
  // MPI non-overtaking: a rendezvous send followed by an eager send with
  // the same (source, tag) must match late-posted receives in send order,
  // although the eager bytes and the RTS wait in the unexpected store.
  for (const char* strategy : {"hetero-split", "aggregate-fastest",
                               "multicore-hetero-split", "greedy-balance",
                               "single-rail:0"}) {
    core::World world(paper_testbed(strategy));
    const auto big = test::make_pattern(128_KiB, 1);
    const auto small = test::make_pattern(64, 2);
    auto big_send = world.engine(0).isend(1, 5, big.data(), big.size());
    auto small_send = world.engine(0).isend(1, 5, small.data(), small.size());
    ASSERT_TRUE(big_send->rendezvous) << strategy;
    ASSERT_FALSE(small_send->rendezvous) << strategy;
    world.fabric().events().run_all();  // both wait in the unexpected store

    std::vector<std::uint8_t> first(128_KiB), second(128_KiB);
    auto r1 = world.engine(1).irecv(0, 5, first.data(), first.size());
    auto r2 = world.engine(1).irecv(0, 5, second.data(), second.size());
    world.wait(r1);
    world.wait(r2);
    world.wait(big_send);
    EXPECT_EQ(r1->expected, big.size()) << strategy;
    EXPECT_EQ(r2->expected, small.size()) << strategy;
    EXPECT_TRUE(std::equal(big.begin(), big.end(), first.begin())) << strategy;
    EXPECT_TRUE(std::equal(small.begin(), small.end(), second.begin())) << strategy;
  }
}

TEST(EngineEdge, StatsResetClearsCounters) {
  core::World world(paper_testbed("hetero-split"));
  world.measure_one_way(4_KiB);
  EXPECT_GT(world.engine(0).stats().sends, 0u);
  world.engine(0).reset_stats();
  EXPECT_EQ(world.engine(0).stats().sends, 0u);
  ASSERT_EQ(world.engine(0).stats().payload_bytes_per_rail.size(), 2u);
  EXPECT_EQ(world.engine(0).stats().payload_bytes_per_rail[0], 0u);
}

}  // namespace
}  // namespace rails::core
