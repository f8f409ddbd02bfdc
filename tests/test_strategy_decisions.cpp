// Direct tests of strategy plan outputs under controlled NIC/core states —
// the engine-independent view of each plug-in's decision logic.
#include <gtest/gtest.h>

#include "core/world.hpp"
#include "fabric/presets.hpp"

namespace rails::core {
namespace {

/// Harness: a real world provides the context; we interrogate strategies
/// directly with hand-made pending lists and NIC occupancy.
class DecisionHarness : public ::testing::Test {
 protected:
  DecisionHarness() : world_(paper_testbed("hetero-split")) {}

  StrategyContext ctx() {
    StrategyContext c;
    c.now = world_.fabric().now();
    c.estimator = &world_.estimator();
    nics_ = {&world_.fabric().nic(0, 0), &world_.fabric().nic(0, 1)};
    c.nics = std::span<fabric::SimNic* const>(nics_.data(), nics_.size());
    c.cores = &world_.fabric().cores(0);
    c.config = &world_.engine(0).config();
    return c;
  }

  SendRequest make_send(std::size_t len, Tag tag = 1) {
    SendRequest s;
    s.id = next_id_++;
    s.dst = 1;
    s.tag = tag;
    s.data = buffer_.data();
    s.len = len;
    return s;
  }

  /// Occupies rail `r`'s injection port for `us` microseconds from now.
  void occupy_rail(RailId r, double us) {
    fabric::Segment seg;
    seg.kind = fabric::SegKind::kData;
    seg.src = 0;
    seg.dst = 1;
    seg.rail = r;
    const double bw = world_.fabric().nic(0, r).model().params().dma_bw_mbps;
    seg.payload.assign(static_cast<std::size_t>(us * bw), 0);
    world_.fabric().set_rx_handler(1, [](fabric::Segment&&) {});
    world_.fabric().nic(0, r).post(std::move(seg), world_.fabric().now());
  }

  core::World world_;
  std::vector<fabric::SimNic*> nics_;
  std::vector<std::uint8_t> buffer_ = std::vector<std::uint8_t>(64_KiB, 0x77);
  std::uint64_t next_id_ = 1;
};

TEST_F(DecisionHarness, HeteroRendezvousSplitsFavourMyri) {
  HeteroSplit strategy;
  const auto plan = strategy.plan_rendezvous(ctx(), 4_MiB);
  ASSERT_EQ(plan.chunks.size(), 2u);
  EXPECT_EQ(plan.chunks[0].rail, 0u);
  EXPECT_GT(plan.chunks[0].bytes, plan.chunks[1].bytes);
  EXPECT_EQ(plan.chunks[0].bytes + plan.chunks[1].bytes, 4_MiB);
}

TEST_F(DecisionHarness, HeteroDropsABusyRail) {
  occupy_rail(0, 50'000.0);  // Myri busy for ~50 ms
  HeteroSplit strategy;
  const auto plan = strategy.plan_rendezvous(ctx(), 1_MiB);
  ASSERT_EQ(plan.chunks.size(), 1u);
  EXPECT_EQ(plan.chunks[0].rail, 1u);
}

TEST_F(DecisionHarness, FixedRatioIgnoresBusyState) {
  FixedRatioSplit strategy;
  const auto idle_plan = strategy.plan_rendezvous(ctx(), 1_MiB);
  occupy_rail(0, 50'000.0);
  const auto busy_plan = strategy.plan_rendezvous(ctx(), 1_MiB);
  ASSERT_EQ(idle_plan.chunks.size(), busy_plan.chunks.size());
  for (std::size_t i = 0; i < idle_plan.chunks.size(); ++i) {
    EXPECT_EQ(idle_plan.chunks[i].bytes, busy_plan.chunks[i].bytes)
        << "fixed ratio must be state-blind (that is its defect)";
  }
}

TEST_F(DecisionHarness, AggregateFastestPacksEverythingOnOneRail) {
  AggregateFastest strategy;
  const auto s1 = make_send(1000);
  const auto s2 = make_send(2000, 2);
  const auto s3 = make_send(500, 3);
  const std::vector<const SendRequest*> pending = {&s1, &s2, &s3};
  const auto schedule = strategy.plan_eager(ctx(), pending);
  ASSERT_EQ(schedule.emissions.size(), 1u);
  EXPECT_EQ(schedule.emissions[0].pieces.size(), 3u);
  EXPECT_FALSE(schedule.emissions[0].offload_core.has_value());
}

TEST_F(DecisionHarness, AggregateFastestDefersWhenAllRailsBusy) {
  occupy_rail(0, 100.0);
  occupy_rail(1, 100.0);
  AggregateFastest strategy;
  const auto s1 = make_send(1000);
  const std::vector<const SendRequest*> pending = {&s1};
  const auto schedule = strategy.plan_eager(ctx(), pending);
  EXPECT_TRUE(schedule.empty());
  EXPECT_TRUE(schedule.blocked) << "no group can emit with every rail busy";
}

TEST_F(DecisionHarness, MulticoreIsBlockedOnlyWithoutIdleRemoteCores) {
  // With every rail busy, a lone medium send still splits onto the busy
  // rails from idle remote cores, so a multicore strategy that defers a
  // small send is not blocked until the remote cores are busy too.
  occupy_rail(0, 100.0);
  occupy_rail(1, 100.0);
  const auto tiny = make_send(8);
  const std::vector<const SendRequest*> one = {&tiny};
  MulticoreHeteroSplit multicore;
  const auto medium = make_send(16_KiB);
  const std::vector<const SendRequest*> lone = {&medium};
  EXPECT_EQ(multicore.plan_eager(ctx(), lone).emissions.size(), 2u);
  const auto deferred = multicore.plan_eager(ctx(), one);
  EXPECT_TRUE(deferred.empty());
  EXPECT_FALSE(deferred.blocked);
  for (CoreId core = 1; core < world_.fabric().cores(0).count(); ++core) {
    world_.fabric().cores(0).occupy(core, world_.fabric().now(), usec(1000.0));
  }
  const auto stuck = multicore.plan_eager(ctx(), lone);
  EXPECT_TRUE(stuck.empty());
  EXPECT_TRUE(stuck.blocked);
}

TEST_F(DecisionHarness, GreedyAssignsRoundRobinOverIdleRails) {
  GreedyBalance strategy;
  const auto s1 = make_send(100);
  const auto s2 = make_send(100, 2);
  const auto s3 = make_send(100, 3);
  const auto s4 = make_send(100, 4);
  const std::vector<const SendRequest*> pending = {&s1, &s2, &s3, &s4};
  const auto schedule = strategy.plan_eager(ctx(), pending);
  ASSERT_EQ(schedule.emissions.size(), 4u);
  EXPECT_EQ(schedule.emissions[0].rail, 0u);
  EXPECT_EQ(schedule.emissions[1].rail, 1u);
  EXPECT_EQ(schedule.emissions[2].rail, 0u);
  EXPECT_EQ(schedule.emissions[3].rail, 1u);
}

TEST_F(DecisionHarness, MulticoreSplitsOnlyWithIdleCores) {
  MulticoreHeteroSplit strategy;
  const auto send = make_send(16_KiB);
  const std::vector<const SendRequest*> pending = {&send};

  auto c = ctx();
  auto split = strategy.plan_eager(c, pending);
  ASSERT_EQ(split.emissions.size(), 2u);
  EXPECT_TRUE(split.emissions[0].offload_core.has_value());
  EXPECT_TRUE(split.emissions[1].offload_core.has_value());
  EXPECT_NE(*split.emissions[0].offload_core, *split.emissions[1].offload_core);

  // Occupy every non-scheduler core: the strategy must fall back to
  // single-core aggregation (min{idle NICs, idle cores} = 0 remote cores).
  for (CoreId core = 1; core < world_.fabric().cores(0).count(); ++core) {
    world_.fabric().cores(0).occupy(core, world_.fabric().now(), usec(1000.0));
  }
  auto fallback = strategy.plan_eager(ctx(), pending);
  ASSERT_EQ(fallback.emissions.size(), 1u);
  EXPECT_FALSE(fallback.emissions[0].offload_core.has_value());
}

TEST_F(DecisionHarness, SingleRailControlRailIsItsOwn) {
  SingleRail r0(0);
  SingleRail r1(1);
  EXPECT_EQ(r0.control_rail(ctx()), 0u);
  EXPECT_EQ(r1.control_rail(ctx()), 1u);
}

TEST_F(DecisionHarness, IsoSplitChunksAreEqualAndOrdered) {
  IsoSplit strategy;
  const auto plan = strategy.plan_rendezvous(ctx(), 1_MiB);
  ASSERT_EQ(plan.chunks.size(), 2u);
  EXPECT_EQ(plan.chunks[0].bytes, plan.chunks[1].bytes);
  EXPECT_EQ(plan.chunks[0].offset, 0u);
  EXPECT_EQ(plan.chunks[1].offset, 512_KiB);
}

}  // namespace
}  // namespace rails::core
