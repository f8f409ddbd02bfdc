// Randomized end-to-end property test: arbitrary mixes of message sizes,
// tags and directions must be delivered intact under every strategy, and
// the bytes put on the wire must cover exactly the payload sent.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/world.hpp"
#include "test_util.hpp"

namespace rails::core {
namespace {

struct Scenario {
  const char* strategy;
  int seed;
};

// Without this, gtest prints a Scenario as its raw bytes, including the
// randomised address of `strategy`, so the test names ctest discovers
// differed from build to build. The strategy is already in the test name.
void PrintTo(const Scenario& s, std::ostream* os) { *os << "seed " << s.seed; }

class RandomTraffic : public ::testing::TestWithParam<Scenario> {};

TEST_P(RandomTraffic, AllMessagesArriveIntact) {
  core::World world(paper_testbed(GetParam().strategy));
  Xoshiro256 rng(GetParam().seed);

  struct Flow {
    std::vector<std::uint8_t> tx;
    std::vector<std::uint8_t> rx;
    SendHandle send;
    RecvHandle recv;
    std::uint64_t seed;
  };
  std::vector<Flow> flows;
  const unsigned count = 12;

  std::size_t total_payload = 0;
  for (unsigned i = 0; i < count; ++i) {
    Flow f;
    f.seed = rng();
    // Mix of eager and rendezvous sizes, including odd lengths.
    const std::size_t size = 1 + rng.below(i % 3 == 0 ? 2_MiB : 8_KiB);
    f.tx = test::make_pattern(size, f.seed);
    f.rx.assign(size, 0);
    total_payload += size;
    flows.push_back(std::move(f));
  }

  // Post receives for even flows up front (expected); odd flows post late
  // (unexpected path).
  for (unsigned i = 0; i < count; i += 2) {
    flows[i].recv =
        world.engine(1).irecv(0, i, flows[i].rx.data(), flows[i].rx.size());
  }
  for (unsigned i = 0; i < count; ++i) {
    flows[i].send = world.engine(0).isend(1, i, flows[i].tx.data(), flows[i].tx.size());
  }
  world.fabric().events().run_all();
  for (unsigned i = 1; i < count; i += 2) {
    flows[i].recv =
        world.engine(1).irecv(0, i, flows[i].rx.data(), flows[i].rx.size());
  }
  for (auto& f : flows) world.wait(f.recv);
  for (auto& f : flows) world.wait(f.send);

  for (unsigned i = 0; i < count; ++i) {
    EXPECT_EQ(flows[i].rx, flows[i].tx) << "flow " << i;
  }

  // Conservation: the fabric delivered at least the application payload
  // (headers and control extra), and the engine's per-rail accounting sums
  // to everything it posted.
  const auto& stats = world.engine(0).stats();
  std::size_t accounted = 0;
  for (auto b : stats.payload_bytes_per_rail) accounted += b;
  EXPECT_GE(accounted, total_payload);
}

std::string scenario_name(const ::testing::TestParamInfo<Scenario>& info) {
  std::string s = info.param.strategy;
  for (char& c : s) {
    if (c == '-' || c == ':') c = '_';
  }
  return s + "_seed" + std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Mix, RandomTraffic,
    ::testing::Values(Scenario{"hetero-split", 1}, Scenario{"hetero-split", 2},
                      Scenario{"multicore-hetero-split", 1},
                      Scenario{"multicore-hetero-split", 3},
                      Scenario{"iso-split", 1}, Scenario{"greedy-balance", 1},
                      Scenario{"aggregate-fastest", 2},
                      Scenario{"fixed-ratio-split", 1}, Scenario{"single-rail:0", 1},
                      Scenario{"single-rail:1", 4}),
    scenario_name);

TEST(PropertyBidirectional, CrossTrafficIntegrity) {
  core::World world(paper_testbed("multicore-hetero-split"));
  Xoshiro256 rng(77);
  for (int round = 0; round < 5; ++round) {
    const std::size_t s01 = 1 + rng.below(1_MiB);
    const std::size_t s10 = 1 + rng.below(1_MiB);
    const auto tx01 = test::make_pattern(s01, round * 2);
    const auto tx10 = test::make_pattern(s10, round * 2 + 1);
    std::vector<std::uint8_t> rx01(s01), rx10(s10);
    auto r1 = world.engine(1).irecv(0, 1, rx01.data(), s01);
    auto r0 = world.engine(0).irecv(1, 2, rx10.data(), s10);
    auto send0 = world.engine(0).isend(1, 1, tx01.data(), s01);
    auto send1 = world.engine(1).isend(0, 2, tx10.data(), s10);
    world.wait(r1);
    world.wait(r0);
    world.wait(send0);
    world.wait(send1);
    EXPECT_EQ(rx01, tx01) << "round " << round;
    EXPECT_EQ(rx10, tx10) << "round " << round;
  }
}

}  // namespace
}  // namespace rails::core
