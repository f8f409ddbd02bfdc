#include "strategy/offload_model.hpp"

#include <gtest/gtest.h>

#include "fabric/presets.hpp"
#include "sampling/sampler.hpp"

namespace rails::strategy {
namespace {

class OffloadFixture : public ::testing::Test {
 protected:
  static const std::vector<sampling::RailProfile>& profiles() {
    static const auto p = sampling::sample_rails(
        {fabric::myri10g(), fabric::qsnet2()}, {1, 64u * 1024u, 1});
    return p;
  }

  std::vector<SolverRail> rails() {
    costs_.clear();
    costs_.emplace_back(&profiles()[0].eager);
    costs_.emplace_back(&profiles()[1].eager);
    return {{0, &costs_[0], 0}, {1, &costs_[1], 0}};
  }

  std::vector<ProfileCost> costs_;
};

TEST_F(OffloadFixture, ParallelTimeIsEq1) {
  const auto r = rails();
  const std::vector<Chunk> chunks = {{0, 0, 30000}, {1, 30000, 20000}};
  const SimDuration to = usec(3.0);
  const SimDuration expected =
      to + std::max(r[0].cost->duration(30000), r[1].cost->duration(20000));
  EXPECT_EQ(parallel_eager_time(r, chunks, to), expected);
}

TEST_F(OffloadFixture, ParallelTimeIncludesReadyOffsets) {
  auto r = rails();
  r[1].ready_offset = usec(100.0);
  const std::vector<Chunk> chunks = {{0, 0, 1000}, {1, 1000, 1000}};
  const SimDuration t = parallel_eager_time(r, chunks, 0);
  EXPECT_GE(t, usec(100.0));
}

TEST_F(OffloadFixture, TinyMessagesNeverSplit) {
  // §III-D: "Transmitting tiny eager packets in parallel is thus
  // inappropriate."
  const auto plan = plan_eager(rails(), 512, /*idle_cores=*/4);
  EXPECT_FALSE(plan.split);
  ASSERT_EQ(plan.chunks.size(), 1u);
  EXPECT_EQ(plan.chunks[0].bytes, 512u);
}

TEST_F(OffloadFixture, MediumMessagesSplitWithEnoughCores) {
  const auto plan = plan_eager(rails(), 64_KiB, /*idle_cores=*/3);
  EXPECT_TRUE(plan.split);
  EXPECT_EQ(plan.chunks.size(), 2u);
  EXPECT_LT(plan.predicted, plan.single_rail_predicted);
}

TEST_F(OffloadFixture, GainApproachesPaperEstimate) {
  // Fig. 9: up to ~30 % latency reduction at 64 KiB.
  const auto plan = plan_eager(rails(), 64_KiB, 3);
  ASSERT_TRUE(plan.split);
  const double gain = 1.0 - static_cast<double>(plan.predicted) /
                                static_cast<double>(plan.single_rail_predicted);
  EXPECT_GT(gain, 0.20);
  EXPECT_LT(gain, 0.55);
}

TEST_F(OffloadFixture, NoIdleCoresMeansNoSplit) {
  // Each chunk needs its own core; with fewer than 2 idle cores the copies
  // would serialise (Fig. 4a) and splitting loses.
  for (unsigned cores : {0u, 1u}) {
    const auto plan = plan_eager(rails(), 64_KiB, cores);
    EXPECT_FALSE(plan.split) << cores << " idle cores";
  }
}

TEST_F(OffloadFixture, HigherSignalCostRaisesBreakEven) {
  OffloadConfig cheap;
  cheap.signal_cost = 0;
  OffloadConfig costly;
  costly.signal_cost = usec(30.0);

  // Find the smallest power-of-two size that splits under each config.
  auto break_even = [&](const OffloadConfig& cfg) {
    for (std::size_t s = 1_KiB; s <= 64_KiB; s <<= 1) {
      if (plan_eager(rails(), s, 3, cfg).split) return s;
    }
    return std::size_t{0};
  };
  const std::size_t be_cheap = break_even(cheap);
  const std::size_t be_costly = break_even(costly);
  ASSERT_NE(be_cheap, 0u);
  ASSERT_NE(be_costly, 0u);
  EXPECT_LT(be_cheap, be_costly);
}

TEST_F(OffloadFixture, PreemptCostUsedWhenPreempting) {
  OffloadConfig cfg;
  cfg.signal_cost = usec(3.0);
  cfg.preempt_cost = usec(6.0);
  const auto signalled = plan_eager(rails(), 64_KiB, 3, cfg, /*preempt=*/false);
  const auto preempted = plan_eager(rails(), 64_KiB, 3, cfg, /*preempt=*/true);
  ASSERT_TRUE(signalled.split);
  ASSERT_TRUE(preempted.split);
  EXPECT_EQ(preempted.predicted - signalled.predicted, usec(3.0));
}

TEST_F(OffloadFixture, MinSplitSizeRespected) {
  OffloadConfig cfg;
  cfg.min_split_size = 32_KiB;
  EXPECT_FALSE(plan_eager(rails(), 16_KiB, 3, cfg).split);
}

TEST_F(OffloadFixture, FallbackPicksBestSingleRail) {
  const auto plan = plan_eager(rails(), 256, 4);
  ASSERT_FALSE(plan.split);
  // At 256 bytes QsNetII (rail 1) has the lower eager latency.
  EXPECT_EQ(plan.chunks[0].rail, 1u);
}

class CoreCapSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(CoreCapSweep, ChunkCountNeverExceedsMinNicsCores) {
  static const auto profiles = sampling::sample_rails(
      {fabric::myri10g(), fabric::qsnet2(), fabric::ib_ddr()}, {1, 32u * 1024u, 1});
  std::vector<ProfileCost> costs;
  costs.emplace_back(&profiles[0].eager);
  costs.emplace_back(&profiles[1].eager);
  costs.emplace_back(&profiles[2].eager);
  const std::vector<SolverRail> rails = {
      {0, &costs[0], 0}, {1, &costs[1], 0}, {2, &costs[2], 0}};
  const unsigned idle_cores = GetParam();
  const auto plan = plan_eager(rails, 32_KiB, idle_cores);
  const unsigned cap = std::min<unsigned>(3, idle_cores);
  EXPECT_LE(plan.chunks.size(), std::max(1u, cap));
  std::size_t sum = 0;
  for (const auto& c : plan.chunks) sum += c.bytes;
  EXPECT_EQ(sum, 32_KiB);
}

INSTANTIATE_TEST_SUITE_P(Cores, CoreCapSweep, ::testing::Values(0u, 1u, 2u, 3u, 4u, 8u));

}  // namespace
}  // namespace rails::strategy
