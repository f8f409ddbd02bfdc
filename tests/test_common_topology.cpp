#include "topo/machine.hpp"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/types.hpp"

namespace rails {
namespace {

TEST(Topology, OpteronCounts) {
  const auto topo = MachineTopology::opteron_2x2();
  EXPECT_EQ(topo.core_count(), 4u);
  EXPECT_EQ(topo.socket_of(0), 0u);
  EXPECT_EQ(topo.socket_of(1), 0u);
  EXPECT_EQ(topo.socket_of(2), 1u);
  EXPECT_EQ(topo.socket_of(3), 1u);
}

TEST(Topology, SameSocket) {
  const auto topo = MachineTopology::opteron_2x2();
  EXPECT_TRUE(topo.same_socket(0, 1));
  EXPECT_FALSE(topo.same_socket(1, 2));
  EXPECT_TRUE(topo.same_socket(2, 3));
}

TEST(Topology, NeighboursSameSocketFirst) {
  const auto topo = MachineTopology::opteron_2x2();
  std::vector<CoreId> n{99};  // stale contents are cleared
  topo.neighbours_by_distance(0, n);
  ASSERT_EQ(n.size(), 3u);
  EXPECT_EQ(n[0], 1u);  // same socket first
  // Remote socket cores follow in id order.
  EXPECT_EQ(n[1], 2u);
  EXPECT_EQ(n[2], 3u);
}

TEST(Topology, NeighboursExcludeSelf) {
  const auto topo = MachineTopology::t2k_4x4();
  std::vector<CoreId> n;
  for (CoreId c = 0; c < topo.core_count(); ++c) {
    topo.neighbours_by_distance(c, n);
    EXPECT_EQ(n.size(), topo.core_count() - 1);
    EXPECT_EQ(std::find(n.begin(), n.end(), c), n.end());
  }
}

TEST(Topology, NeighboursCoverAllCoresOnce) {
  const auto topo = MachineTopology::t2k_4x4();
  std::vector<CoreId> n;
  topo.neighbours_by_distance(5, n);
  std::sort(n.begin(), n.end());
  for (std::size_t i = 1; i < n.size(); ++i) EXPECT_NE(n[i - 1], n[i]);
}

TEST(Topology, T2kSameSocketPrefix) {
  const auto topo = MachineTopology::t2k_4x4();
  std::vector<CoreId> n;
  topo.neighbours_by_distance(5, n);  // socket 1 (cores 4..7)
  // First three neighbours are the same-socket peers.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(topo.socket_of(n[i]), 1u);
  // Next sockets follow in ring order: 2, 3, 0.
  EXPECT_EQ(topo.socket_of(n[3]), 2u);
  EXPECT_EQ(topo.socket_of(n[7]), 3u);
  EXPECT_EQ(topo.socket_of(n[11]), 0u);
}

TEST(Topology, Describe) {
  EXPECT_EQ(MachineTopology::opteron_2x2().describe(), "2 socket(s) x 2 core(s) = 4 cores");
}

TEST(Units, ByteLiterals) {
  EXPECT_EQ(4_KiB, 4096u);
  EXPECT_EQ(2_MiB, 2u * 1024u * 1024u);
}

TEST(Units, TimeLiteralsAndConversions) {
  EXPECT_EQ(1_us, 1000);
  EXPECT_EQ(2_ms, 2'000'000);
  EXPECT_EQ(usec(2.5), 2500);
  EXPECT_DOUBLE_EQ(to_usec(1500), 1.5);
}

TEST(Units, WireTimeAndBandwidth) {
  // 1 MB at 1000 MB/s = 1 ms.
  EXPECT_EQ(wire_time(1'000'000, 1000.0), 1_ms);
  EXPECT_DOUBLE_EQ(mbps(1'000'000, 1_ms), 1000.0);
  EXPECT_DOUBLE_EQ(mbps(1024, 0), 0.0);
}

}  // namespace
}  // namespace rails
