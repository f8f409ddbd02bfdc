#include "strategy/split_solver.hpp"

#include <gtest/gtest.h>

#include "fabric/presets.hpp"
#include "sampling/sampler.hpp"

namespace rails::strategy {
namespace {

using fabric::NetworkModel;
using fabric::Protocol;

/// Affine rail: duration = latency + bytes/bw.
struct AffineFixture {
  NetworkModel model;
  ModelCost cost;
  AffineFixture(double lat_us, double bw)
      : model(fabric::affine(lat_us, bw)), cost(&model, Protocol::kRendezvous) {}
};

TEST(ModelCost, InverseMatchesDuration) {
  AffineFixture f(5.0, 1000.0);
  for (std::size_t bytes : {0ul, 100ul, 4096ul, 1000000ul}) {
    const SimDuration d = f.cost.duration(bytes);
    const std::size_t inv = f.cost.max_bytes_within(d);
    EXPECT_GE(inv, bytes);
    EXPECT_LE(f.cost.duration(inv), d);
  }
}

TEST(ModelCost, ZeroOrNegativeBudgetFitsNothing) {
  // Regression: with a (degenerate) zero-latency model, a zero budget used
  // to send the doubling search all the way to its ceiling and report ~1 TiB
  // as "fitting" in no time at all.
  AffineFixture f(0.0, 1e15);
  EXPECT_EQ(f.cost.max_bytes_within(0), 0u);
  EXPECT_EQ(f.cost.max_bytes_within(-1), 0u);
  EXPECT_EQ(f.cost.max_bytes_within(usec(-5.0)), 0u);
  AffineFixture g(5.0, 1000.0);
  EXPECT_EQ(g.cost.max_bytes_within(0), 0u);
  EXPECT_EQ(g.cost.max_bytes_within(usec(4.9)), 0u);  // below the latency
}

TEST(ModelCost, SearchClampsAtCeilingInsteadOfOverflowing) {
  // A near-infinite-bandwidth rail: everything "fits", so the search must
  // stop at its documented 1 TiB ceiling rather than doubling forever.
  AffineFixture f(0.0, 1e15);
  EXPECT_EQ(f.cost.max_bytes_within(usec(1.0)), std::size_t{1} << 40);
}

TEST(Dichotomy, EqualRailsSplitInHalf) {
  AffineFixture a(2.0, 1000.0);
  AffineFixture b(2.0, 1000.0);
  const SolverRail ra{0, &a.cost, 0};
  const SolverRail rb{1, &b.cost, 0};
  const auto result = dichotomy_split(ra, rb, 1_MiB);
  ASSERT_EQ(result.chunks.size(), 2u);
  EXPECT_NEAR(static_cast<double>(result.chunks[0].bytes), 1_MiB / 2.0, 1_MiB * 0.01);
  EXPECT_LE(result.imbalance, usec(1.0));
}

TEST(Dichotomy, HeterogeneousRailsMatchBandwidthRatio) {
  // With zero latency the equal-finish ratio is exactly bw0/(bw0+bw1).
  AffineFixture fast(0.0, 1170.0);
  AffineFixture slow(0.0, 837.0);
  const SolverRail ra{0, &fast.cost, 0};
  const SolverRail rb{1, &slow.cost, 0};
  const std::size_t total = 4_MiB;
  const auto result = dichotomy_split(ra, rb, total);
  const double expected = 1170.0 / (1170.0 + 837.0) * static_cast<double>(total);
  EXPECT_NEAR(static_cast<double>(result.chunks[0].bytes), expected, total * 0.01);
}

TEST(Dichotomy, StartsAtHalfAndConverges) {
  AffineFixture fast(0.0, 2000.0);
  AffineFixture slow(0.0, 500.0);
  const SolverRail ra{0, &fast.cost, 0};
  const SolverRail rb{1, &slow.cost, 0};
  DichotomyConfig cfg;
  cfg.max_iterations = 1;  // forced to stop right after the initial 50/50
  const auto one = dichotomy_split(ra, rb, 1_MiB, cfg);
  EXPECT_EQ(one.chunks[0].bytes, 1_MiB / 2);

  cfg.max_iterations = 30;
  cfg.tolerance = 100;
  const auto converged = dichotomy_split(ra, rb, 1_MiB, cfg);
  EXPECT_LT(converged.imbalance, one.imbalance);
  EXPECT_NEAR(static_cast<double>(converged.chunks[0].bytes), 0.8 * 1_MiB, 0.01 * 1_MiB);
}

TEST(Dichotomy, BusyOffsetShiftsShare) {
  AffineFixture a(1.0, 1000.0);
  AffineFixture b(1.0, 1000.0);
  const SolverRail ra{0, &a.cost, usec(500.0)};  // rail 0 busy for 500 us
  const SolverRail rb{1, &b.cost, 0};
  const auto result = dichotomy_split(ra, rb, 1_MiB);
  // Equal speeds but rail 0 starts late: it must carry less.
  ASSERT_EQ(result.chunks.size(), 2u);
  EXPECT_LT(result.chunks[0].bytes, result.chunks[1].bytes);
  EXPECT_LE(result.imbalance, usec(1.0));
}

TEST(Dichotomy, IterationsBoundedByConfig) {
  AffineFixture a(0.0, 1234.0);
  AffineFixture b(0.0, 567.0);
  DichotomyConfig cfg;
  cfg.max_iterations = 7;
  cfg.tolerance = 0;  // unreachable: always runs to the iteration cap
  const auto result =
      dichotomy_split({0, &a.cost, 0}, {1, &b.cost, 0}, 1_MiB, cfg);
  EXPECT_EQ(result.iterations, 7u);
}

TEST(EqualFinish, MatchesDichotomyOnTwoRails) {
  AffineFixture a(3.0, 1170.0);
  AffineFixture b(2.0, 837.0);
  const std::vector<SolverRail> rails = {{0, &a.cost, 0}, {1, &b.cost, 0}};
  const auto dich = dichotomy_split(rails[0], rails[1], 4_MiB);
  const auto ef = solve_equal_finish(rails, 4_MiB);
  ASSERT_EQ(ef.chunks.size(), 2u);
  EXPECT_NEAR(static_cast<double>(ef.chunks[0].bytes),
              static_cast<double>(dich.chunks[0].bytes), 4_MiB * 0.005);
  EXPECT_NEAR(static_cast<double>(ef.makespan), static_cast<double>(dich.makespan),
              static_cast<double>(dich.makespan) * 0.005);
}

TEST(EqualFinish, ChunksTileTheMessage) {
  AffineFixture a(1.0, 900.0);
  AffineFixture b(2.0, 600.0);
  AffineFixture c(3.0, 300.0);
  const std::vector<SolverRail> rails = {{0, &a.cost, 0}, {1, &b.cost, 0}, {2, &c.cost, 0}};
  for (std::size_t total : {4096ul, 100000ul, 1048576ul, 8388608ul}) {
    const auto result = solve_equal_finish(rails, total);
    std::size_t sum = 0;
    std::size_t expected_offset = 0;
    for (const auto& chunk : result.chunks) {
      EXPECT_EQ(chunk.offset, expected_offset);
      expected_offset += chunk.bytes;
      sum += chunk.bytes;
    }
    EXPECT_EQ(sum, total);
  }
}

TEST(EqualFinish, NeverWorseThanBestSingleRail) {
  AffineFixture a(2.0, 1170.0);
  AffineFixture b(1.0, 837.0);
  const std::vector<SolverRail> rails = {{0, &a.cost, 0}, {1, &b.cost, 0}};
  for (std::size_t total = 1_KiB; total <= 8_MiB; total <<= 1) {
    const auto split = solve_equal_finish(rails, total);
    const auto best = single_rail_time(rails[best_single_rail(rails, total)], total);
    EXPECT_LE(split.makespan, best) << "total " << total;
  }
}

TEST(EqualFinish, HopelesslyBusyRailGetsNothing) {
  // Fig. 2: a NIC that stays busy past the other rail's completion is
  // discarded from the transfer.
  AffineFixture a(1.0, 1000.0);
  AffineFixture b(1.0, 1000.0);
  const SimDuration solo = a.cost.duration(64_KiB);
  const std::vector<SolverRail> rails = {
      {0, &a.cost, 0},
      {1, &b.cost, solo * 2},  // busy until well past rail 0's solo finish
  };
  const auto result = solve_equal_finish(rails, 64_KiB);
  ASSERT_EQ(result.chunks.size(), 1u);
  EXPECT_EQ(result.chunks[0].rail, 0u);
  EXPECT_EQ(result.chunks[0].bytes, 64_KiB);
}

TEST(EqualFinish, BrieflyBusyRailStillUsed) {
  // Fig. 2's other case: a busy NIC that frees soon enough still joins.
  AffineFixture a(1.0, 1000.0);
  AffineFixture b(1.0, 1000.0);
  const std::vector<SolverRail> rails = {
      {0, &a.cost, 0},
      {1, &b.cost, usec(50.0)},  // busy 50 us; message takes ~1000 us
  };
  const auto result = solve_equal_finish(rails, 1_MiB);
  ASSERT_EQ(result.chunks.size(), 2u);
  EXPECT_GT(result.chunks[1].bytes, 0u);
  EXPECT_LT(result.chunks[1].bytes, result.chunks[0].bytes);
}

TEST(EqualFinish, SingleRailDegenerate) {
  AffineFixture a(1.0, 500.0);
  const std::vector<SolverRail> rails = {{0, &a.cost, 0}};
  const auto result = solve_equal_finish(rails, 1_MiB);
  ASSERT_EQ(result.chunks.size(), 1u);
  EXPECT_EQ(result.chunks[0].bytes, 1_MiB);
  EXPECT_EQ(result.makespan, a.cost.duration(1_MiB));
}

TEST(EqualFinish, SingleSurvivorSplitHasZeroImbalance) {
  // The failover path re-splits a lost range over the survivors; with one
  // survivor that is a single chunk, and imbalance must read 0.
  AffineFixture a(1.0, 500.0);
  const std::vector<SolverRail> rails = {{3, &a.cost, usec(2.0)}};
  const auto result = solve_equal_finish(rails, 256_KiB);
  ASSERT_EQ(result.chunks.size(), 1u);
  EXPECT_EQ(result.chunks[0].rail, 3u);
  EXPECT_EQ(result.imbalance, 0);
}

TEST(EqualFinish, PrunedToOneRailReportsZeroImbalance) {
  // Regression: imbalance is a cross-rail quantity. When every byte lands on
  // one rail (here because the other rail is hopelessly busy), the result
  // must not report the makespan-vs-nothing difference as imbalance.
  AffineFixture fast(1.0, 1000.0);
  AffineFixture busy(1.0, 1000.0);
  const std::vector<SolverRail> rails = {
      {0, &fast.cost, 0},
      {1, &busy.cost, usec(100000.0)},  // busy far beyond the transfer time
  };
  const auto result = solve_equal_finish(rails, 64_KiB);
  ASSERT_EQ(result.chunks.size(), 1u);
  EXPECT_EQ(result.chunks[0].rail, 0u);
  EXPECT_EQ(result.imbalance, 0);
}

TEST(Dichotomy, SameRailTwiceReportsZeroImbalance) {
  // Two solver entries can alias one physical rail; the chunks then finish
  // sequentially on that rail and "imbalance" between them is meaningless.
  AffineFixture a(2.0, 1000.0);
  const SolverRail ra{0, &a.cost, 0};
  const SolverRail rb{0, &a.cost, 0};
  const auto result = dichotomy_split(ra, rb, 1_MiB);
  EXPECT_EQ(result.imbalance, 0);
}

TEST(EqualFinish, FourRailAggregationApproachesSum) {
  // Four equal rails: the makespan approaches a quarter of the single-rail
  // time (latency amortised at 8 MiB).
  std::vector<AffineFixture> fixtures;
  fixtures.reserve(4);
  for (int i = 0; i < 4; ++i) fixtures.emplace_back(2.0, 1400.0);
  std::vector<SolverRail> rails;
  for (RailId r = 0; r < 4; ++r) rails.push_back({r, &fixtures[r].cost, 0});
  const auto result = solve_equal_finish(rails, 8_MiB);
  ASSERT_EQ(result.chunks.size(), 4u);
  const double solo = static_cast<double>(fixtures[0].cost.duration(8_MiB));
  EXPECT_NEAR(static_cast<double>(result.makespan), solo / 4.0, solo * 0.02);
}

// -- property sweep with sampled (non-affine) profiles ----------------------

class SampledSplitProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SampledSplitProperty, SampledCurvesProduceValidSplits) {
  static const auto profiles = sampling::sample_rails(
      {fabric::myri10g(), fabric::qsnet2()}, {1, 8u * 1024u * 1024u, 1});
  const ProfileCost myri(&profiles[0].rdv_chunk);
  const ProfileCost qs(&profiles[1].rdv_chunk);
  const std::vector<SolverRail> rails = {{0, &myri, 0}, {1, &qs, 0}};
  const std::size_t total = GetParam();

  const auto result = solve_equal_finish(rails, total);
  std::size_t sum = 0;
  for (const auto& chunk : result.chunks) sum += chunk.bytes;
  EXPECT_EQ(sum, total);
  EXPECT_LE(result.makespan,
            single_rail_time(rails[best_single_rail(rails, total)], total));
  if (result.chunks.size() == 2) {
    // Myri-10G is the faster DMA rail: it must carry the bigger share.
    EXPECT_GT(result.chunks[0].bytes, result.chunks[1].bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SampledSplitProperty,
                         ::testing::Values(64_KiB, 256_KiB, 1_MiB, 4_MiB, 8_MiB),
                         [](const auto& info) { return std::to_string(info.param); });

}  // namespace
}  // namespace rails::strategy
