// Tests for the post-reproduction extensions: the batch-spread strategy,
// runtime rail degradation, and profile overrides.
#include <gtest/gtest.h>

#include "core/world.hpp"
#include "fabric/presets.hpp"
#include "test_util.hpp"

namespace rails::core {
namespace {

TEST(BatchSpread, FactoryKnowsIt) {
  auto s = make_strategy("batch-spread");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->name(), "batch-spread");
}

TEST(BatchSpread, BurstIntegrityAcrossRails) {
  core::World world(paper_testbed("batch-spread"));
  constexpr unsigned kFlows = 16;
  const std::size_t size = 2_KiB;
  std::vector<std::vector<std::uint8_t>> tx;
  std::vector<std::vector<std::uint8_t>> rx(kFlows, std::vector<std::uint8_t>(size));
  std::vector<RecvHandle> recvs;
  for (unsigned i = 0; i < kFlows; ++i) {
    tx.push_back(test::make_pattern(size, i));
    recvs.push_back(world.engine(1).irecv(0, i, rx[i].data(), size));
  }
  for (unsigned i = 0; i < kFlows; ++i) world.engine(0).isend(1, i, tx[i].data(), size);
  for (auto& r : recvs) world.wait(r);
  for (unsigned i = 0; i < kFlows; ++i) EXPECT_EQ(rx[i], tx[i]) << "flow " << i;

  const auto& stats = world.engine(0).stats();
  // The burst was spread: both rails carried payload, emissions were
  // aggregated, and the remote-core submissions were used.
  EXPECT_GT(stats.payload_bytes_per_rail[0], 0u);
  EXPECT_GT(stats.payload_bytes_per_rail[1], 0u);
  EXPECT_GT(stats.aggregated_packets, 0u);
  EXPECT_GT(stats.offloaded_chunks, 0u);
}

TEST(BatchSpread, RaisesBurstThroughputOverAggregation) {
  core::World spread(paper_testbed("batch-spread"));
  core::World aggregate(paper_testbed("aggregate-fastest"));
  const SimDuration t_spread = spread.measure_one_way_batch(2_KiB, 32);
  const SimDuration t_agg = aggregate.measure_one_way_batch(2_KiB, 32);
  EXPECT_LT(t_spread, t_agg);
}

TEST(BatchSpread, TinyBurstFallsBackToAggregation) {
  core::World spread(paper_testbed("batch-spread"));
  core::World aggregate(paper_testbed("aggregate-fastest"));
  // 64 B messages: the TO signalling dwarfs the copies; predictions send
  // both strategies down the identical aggregation path.
  EXPECT_EQ(spread.measure_one_way_batch(64, 8), aggregate.measure_one_way_batch(64, 8));
}

TEST(BatchSpread, SingleMessageBehavesLikeMulticoreSplit) {
  core::World spread(paper_testbed("batch-spread"));
  core::World multicore(paper_testbed("multicore-hetero-split"));
  EXPECT_EQ(spread.measure_one_way(16_KiB), multicore.measure_one_way(16_KiB));
}

TEST(Degradation, ScalesTransferTimes) {
  fabric::Fabric fab({2, {fabric::myri10g()}});
  SimTime arrival = 0;
  fab.set_rx_handler(1, [&](fabric::Segment&&) { arrival = fab.now(); });
  fabric::Segment seg;
  seg.kind = fabric::SegKind::kEager;
  seg.src = 0;
  seg.dst = 1;
  seg.rail = 0;
  seg.payload.assign(4096, 1);
  fab.nic(0, 0).post(seg, 0);
  fab.events().run_all();
  const SimTime clean = arrival;

  fabric::Fabric fab2({2, {fabric::myri10g()}});
  fab2.set_rx_handler(1, [&](fabric::Segment&&) { arrival = fab2.now(); });
  fab2.nic(0, 0).set_perf_scale(2.0);
  fab2.nic(0, 0).post(std::move(seg), 0);
  fab2.events().run_all();
  EXPECT_EQ(arrival, clean * 2);
}

TEST(Degradation, DefaultScaleIsIdentity) {
  fabric::Fabric fab({2, {fabric::qsnet2()}});
  EXPECT_DOUBLE_EQ(fab.nic(0, 0).perf_scale(), 1.0);
}

TEST(DegradationDeath, RejectsSpeedup) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  fabric::Fabric fab({2, {fabric::qsnet2()}});
  EXPECT_DEATH(fab.nic(0, 0).set_perf_scale(0.5), "scale");
}

TEST(Degradation, EndToEndBandwidthDrops) {
  core::World world(paper_testbed("single-rail:0"));
  const double clean = world.measure_bandwidth(2_MiB, 1);
  world.fabric().nic(0, 0).set_perf_scale(2.0);
  world.fabric().nic(1, 0).set_perf_scale(2.0);
  const double degraded = world.measure_bandwidth(2_MiB, 1);
  EXPECT_NEAR(degraded, clean / 2.0, clean * 0.03);
}

TEST(ProfileOverride, SkipsSamplingAndMatchesSampledRun) {
  const auto profiles =
      sampling::sample_rails({fabric::myri10g(), fabric::qsnet2()}, {});
  core::WorldConfig with_override = paper_testbed("hetero-split");
  with_override.profile_override = profiles;
  core::World a(with_override);
  core::World b(paper_testbed("hetero-split"));
  EXPECT_EQ(a.measure_pingpong(1_MiB, 2), b.measure_pingpong(1_MiB, 2));
  EXPECT_EQ(a.engine(0).rdv_threshold(), b.engine(0).rdv_threshold());
}

TEST(ProfileOverrideDeath, WrongRailCountRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::WorldConfig cfg = paper_testbed("hetero-split");
  cfg.profile_override = sampling::sample_rails({fabric::myri10g()}, {});
  EXPECT_DEATH(core::World world(cfg), "profile override");
}

TEST(ProfileOverride, OnDiskSamplingCacheRoundTrip) {
  // The full deployment workflow: sample once, persist per-rail profiles,
  // reload them in a fresh process (world) and skip startup sampling — the
  // engine must behave identically to a freshly-sampled one.
  const auto profiles =
      sampling::sample_rails({fabric::myri10g(), fabric::qsnet2()}, {});
  std::vector<std::string> paths;
  for (const auto& rp : profiles) {
    paths.push_back(::testing::TempDir() + "/" + rp.name + ".rails-profile");
    rp.save_file(paths.back());
  }

  core::WorldConfig cfg = paper_testbed("hetero-split");
  for (const auto& path : paths) {
    cfg.profile_override.push_back(sampling::RailProfile::load_file(path));
  }
  core::World cached(cfg);
  core::World fresh(paper_testbed("hetero-split"));
  EXPECT_EQ(cached.measure_pingpong(2_MiB, 2), fresh.measure_pingpong(2_MiB, 2));
  EXPECT_EQ(cached.measure_one_way(16_KiB), fresh.measure_one_way(16_KiB));
  for (const auto& path : paths) std::remove(path.c_str());
}

TEST(ProfileOverride, StaleProfilesMisallocate) {
  // The A5 ablation in miniature: degrade Myri-10G 3x at runtime; the stale
  // estimator keeps over-feeding it and loses to re-sampled knowledge.
  const auto pristine =
      sampling::sample_rails({fabric::myri10g(), fabric::qsnet2()}, {});
  fabric::NetworkModelParams slow_myri = fabric::myri10g();
  slow_myri.dma_bw_mbps /= 3.0;
  const auto fresh = sampling::sample_rails({slow_myri, fabric::qsnet2()}, {});

  auto run = [](const std::vector<sampling::RailProfile>& profiles) {
    core::WorldConfig cfg = paper_testbed("hetero-split");
    cfg.profile_override = profiles;
    core::World world(cfg);
    world.fabric().nic(0, 0).set_perf_scale(3.0);
    world.fabric().nic(1, 0).set_perf_scale(3.0);
    return world.measure_one_way(4_MiB);
  };
  EXPECT_GT(run(pristine), run(fresh));
}

}  // namespace
}  // namespace rails::core
