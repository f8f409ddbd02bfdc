#include "sampling/sampler.hpp"

#include <cstdio>

#include <gtest/gtest.h>

#include "fabric/presets.hpp"

namespace rails::sampling {
namespace {

TEST(SampleSizes, PowersOfTwoLadder) {
  SamplerConfig cfg;
  cfg.min_size = 1;
  cfg.max_size = 16;
  const auto sizes = sample_sizes(cfg);
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 2, 4, 8, 16}));
}

TEST(SampleSizes, AlwaysIncludesMax) {
  SamplerConfig cfg;
  cfg.min_size = 1;
  cfg.max_size = 1000;  // not a power of two
  const auto sizes = sample_sizes(cfg);
  EXPECT_EQ(sizes.back(), 1000u);
}

TEST(SampleSizes, FinerGrid) {
  SamplerConfig cfg;
  cfg.min_size = 16;
  cfg.max_size = 64;
  cfg.steps_per_octave = 2;
  const auto sizes = sample_sizes(cfg);
  // 16, ~23, 32, ~45, 64 — strictly increasing, 5 points.
  EXPECT_EQ(sizes.size(), 5u);
  for (std::size_t i = 1; i < sizes.size(); ++i) EXPECT_GT(sizes[i], sizes[i - 1]);
}

TEST(Sampler, EagerSamplesMatchModelExactly) {
  // The DES is deterministic: a sampled duration equals the model's
  // prediction for that exact size.
  const auto params = fabric::myri10g();
  const fabric::NetworkModel model(params);
  SamplerConfig cfg;
  cfg.max_size = 64_KiB;
  const RailProfile rp = sample_rail(params, cfg);
  for (std::size_t s = 1; s <= params.max_eager; s <<= 1) {
    EXPECT_EQ(rp.eager.estimate(s), model.eager(s).total) << "size " << s;
  }
}

TEST(Sampler, RendezvousSamplesIncludeHandshake) {
  const auto params = fabric::qsnet2();
  const fabric::NetworkModel model(params);
  SamplerConfig cfg;
  cfg.max_size = 1_MiB;
  const RailProfile rp = sample_rail(params, cfg);
  // The measured rendezvous includes the RTS/CTS round: it must exceed the
  // bare chunk duration at every sampled size.
  for (std::size_t s = 1; s <= 1_MiB; s <<= 1) {
    EXPECT_GT(rp.rendezvous.estimate(s), rp.rdv_chunk.estimate(s)) << "size " << s;
  }
  // And at large sizes the total is dominated by the DMA stream.
  EXPECT_NEAR(static_cast<double>(rp.rendezvous.estimate(1_MiB)),
              static_cast<double>(model.rendezvous(1_MiB, true).total),
              static_cast<double>(model.rendezvous(1_MiB, true).total) * 0.05);
}

TEST(Sampler, ThresholdIsEagerRdvCrossover) {
  const auto params = fabric::myri10g();
  SamplerConfig cfg;
  cfg.max_size = 256_KiB;
  const RailProfile rp = sample_rail(params, cfg);
  ASSERT_GT(rp.rdv_threshold, 1u);
  ASSERT_LE(rp.rdv_threshold, params.max_eager);
  // Below the threshold eager wins, at/above rendezvous wins.
  EXPECT_LT(rp.eager.estimate(rp.rdv_threshold / 2),
            rp.rendezvous.estimate(rp.rdv_threshold / 2));
  EXPECT_LE(rp.rendezvous.estimate(rp.rdv_threshold),
            rp.eager.estimate(rp.rdv_threshold));
}

TEST(Sampler, AsymptoticBandwidthMatchesDmaRate) {
  for (const auto& params : {fabric::myri10g(), fabric::qsnet2()}) {
    SamplerConfig cfg;
    cfg.max_size = 8_MiB;
    const RailProfile rp = sample_rail(params, cfg);
    EXPECT_NEAR(rp.rdv_chunk.asymptotic_bandwidth(), params.dma_bw_mbps,
                params.dma_bw_mbps * 0.01)
        << params.name;
  }
}

TEST(Sampler, SampleRailsCoversEveryRail) {
  const auto profiles =
      sample_rails({fabric::myri10g(), fabric::qsnet2(), fabric::gige_tcp()}, {1, 4_KiB, 1});
  ASSERT_EQ(profiles.size(), 3u);
  EXPECT_EQ(profiles[0].name, "myri10g");
  EXPECT_EQ(profiles[1].name, "qsnet2");
  EXPECT_EQ(profiles[2].name, "gige-tcp");
}

TEST(Sampler, RailProfileFileRoundTrip) {
  const auto params = fabric::qsnet2();
  SamplerConfig cfg;
  cfg.max_size = 64_KiB;
  const RailProfile rp = sample_rail(params, cfg);

  const std::string path = ::testing::TempDir() + "/qsnet2.rails-profile";
  rp.save_file(path);
  const RailProfile loaded = RailProfile::load_file(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.name, rp.name);
  EXPECT_EQ(loaded.rdv_threshold, rp.rdv_threshold);
  EXPECT_EQ(loaded.max_eager, rp.max_eager);
  ASSERT_EQ(loaded.eager.point_count(), rp.eager.point_count());
  ASSERT_EQ(loaded.rendezvous.point_count(), rp.rendezvous.point_count());
  ASSERT_EQ(loaded.rdv_chunk.point_count(), rp.rdv_chunk.point_count());
  for (std::size_t s = 1; s <= 64_KiB; s <<= 1) {
    EXPECT_EQ(loaded.eager.estimate(s), rp.eager.estimate(s));
    EXPECT_EQ(loaded.rendezvous.estimate(s), rp.rendezvous.estimate(s));
  }
}

TEST(Sampler, RepetitionsAreStableInSimulation) {
  // The DES is deterministic: sampling the same rail again measures exactly
  // the same durations, so one measurement per point is the median of any
  // number of repetitions.
  const auto params = fabric::myri10g();
  const SamplerConfig cfg{1, 16_KiB, 1};
  const RailProfile a = sample_rail(params, cfg);
  const RailProfile b = sample_rail(params, cfg);
  for (std::size_t s = 1; s <= 16_KiB; s <<= 1) {
    EXPECT_EQ(a.eager.estimate(s), b.eager.estimate(s));
    EXPECT_EQ(a.rendezvous.estimate(s), b.rendezvous.estimate(s));
  }
}

}  // namespace
}  // namespace rails::sampling
