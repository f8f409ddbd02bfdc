// Gathered (iovec) sends and the gather/scatter capability (§II-B).
//
// This binary links src/perf/alloc_hook.cpp (see tests/CMakeLists.txt), so
// rails::perf::t_alloc_count counts every operator-new on this thread.
#include <gtest/gtest.h>

#include "core/world.hpp"
#include "fabric/presets.hpp"
#include "perf/profiler.hpp"
#include "test_util.hpp"

namespace rails::core {
namespace {

std::vector<Engine::IoSlice> slices_of(const std::vector<std::uint8_t>& buf,
                                       std::initializer_list<std::size_t> cuts) {
  std::vector<Engine::IoSlice> slices;
  std::size_t pos = 0;
  for (std::size_t len : cuts) {
    slices.push_back({buf.data() + pos, len});
    pos += len;
  }
  slices.push_back({buf.data() + pos, buf.size() - pos});
  return slices;
}

TEST(Iovec, EagerGatheredIntegrity) {
  core::World world(paper_testbed("hetero-split"));
  const auto tx = test::make_pattern(6000, 1);
  const auto slices = slices_of(tx, {100, 900, 3000});
  std::vector<std::uint8_t> rx(tx.size());
  auto recv = world.engine(1).irecv(0, 1, rx.data(), rx.size());
  auto send = world.engine(0).isendv(1, 1, slices);
  world.wait(recv);
  EXPECT_TRUE(send->done());
  EXPECT_EQ(rx, tx);
}

TEST(Iovec, RendezvousGatheredIntegrity) {
  core::World world(paper_testbed("hetero-split"));
  const auto tx = test::make_pattern(2_MiB, 2);
  const auto slices = slices_of(tx, {1_MiB, 512_KiB});
  std::vector<std::uint8_t> rx(tx.size());
  auto recv = world.engine(1).irecv(0, 1, rx.data(), rx.size());
  auto send = world.engine(0).isendv(1, 1, slices);
  world.wait(send);
  (void)recv;
  EXPECT_TRUE(send->rendezvous);
  EXPECT_EQ(rx, tx);
}

TEST(Iovec, SingleSliceEquivalentToIsend) {
  core::World a(paper_testbed("hetero-split"));
  core::World b(paper_testbed("hetero-split"));
  const auto tx = test::make_pattern(8_KiB, 3);
  std::vector<std::uint8_t> rx(tx.size());

  auto recv_a = a.engine(1).irecv(0, 1, rx.data(), rx.size());
  const SimTime start_a = a.now();
  a.engine(0).isendv(1, 1, std::vector<Engine::IoSlice>{{tx.data(), tx.size()}});
  const SimDuration ta = a.wait(recv_a) - start_a;

  auto recv_b = b.engine(1).irecv(0, 1, rx.data(), rx.size());
  const SimTime start_b = b.now();
  b.engine(0).isend(1, 1, tx.data(), tx.size());
  const SimDuration tb = b.wait(recv_b) - start_b;

  // Both testbed rails support gather/scatter: no coalescing charge.
  EXPECT_EQ(ta, tb);
}

TEST(Iovec, CoalescingChargedWithoutGatherSupport) {
  // IB-DDR's verbs preset lacks gather/scatter: the engine must pay a
  // staging memcpy on the scheduler core, visibly delaying the emission.
  core::WorldConfig no_gather = paper_testbed("single-rail:0");
  no_gather.fabric.rails[1] = fabric::ib_ddr();
  ASSERT_FALSE(no_gather.fabric.rails[1].gather_scatter);

  core::World gather(paper_testbed("single-rail:0"));
  core::World copy_world(no_gather);

  const auto tx = test::make_pattern(16_KiB, 4);
  const std::vector<Engine::IoSlice> slices = {{tx.data(), 8_KiB},
                                               {tx.data() + 8_KiB, 8_KiB}};
  std::vector<std::uint8_t> rx(tx.size());

  auto run = [&](core::World& world) {
    world.fabric().events().run_all();
    auto recv = world.engine(1).irecv(0, 1, rx.data(), rx.size());
    const SimTime start = world.now();
    world.engine(0).isendv(1, 1, slices);
    return world.wait(recv) - start;
  };
  const SimDuration free_gather = run(gather);
  const SimDuration coalesced = run(copy_world);
  const SimDuration expected_copy = wire_time(tx.size(), Engine::kHostCopyMbps);
  EXPECT_EQ(coalesced - free_gather, expected_copy);
  EXPECT_EQ(rx, tx);
}

TEST(Iovec, EmptySliceListSendsZeroBytes) {
  core::World world(paper_testbed("hetero-split"));
  auto recv = world.engine(1).irecv(0, 1, nullptr, 0);
  auto send = world.engine(0).isendv(1, 1, {});
  world.wait(recv);
  EXPECT_TRUE(send->done());
  EXPECT_EQ(recv->bytes_received, 0u);
}

TEST(Iovec, ManySmallSlices) {
  core::World world(paper_testbed("hetero-split"));
  const auto tx = test::make_pattern(4096, 5);
  std::vector<Engine::IoSlice> slices;
  for (std::size_t pos = 0; pos < tx.size(); pos += 64) {
    slices.push_back({tx.data() + pos, 64});
  }
  std::vector<std::uint8_t> rx(tx.size());
  auto recv = world.engine(1).irecv(0, 1, rx.data(), rx.size());
  world.engine(0).isendv(1, 1, slices);
  world.wait(recv);
  EXPECT_EQ(rx, tx);
}

/// This thread's operator-new count. Out of line: GCC 12's UBSan
/// misreports an inlined read of the extern thread_local counter as a null
/// load after the world has run.
[[gnu::noinline]] std::uint64_t allocs_so_far() { return perf::t_alloc_count; }

TEST(Iovec, SteadyStateStagingIsAllocationFree) {
  // Without gather/scatter every isendv stages a contiguous copy. The copy
  // goes into the pooled request's own buffer, whose capacity survives
  // recycling, so a steady flow of same-sized iovec sends never allocates.
  perf::Profiler::set_enabled(false);
  core::WorldConfig cfg = paper_testbed("single-rail:0");
  cfg.fabric.rails[1] = fabric::ib_ddr();
  core::World world(cfg);
  const auto tx = test::make_pattern(6000, 6);
  const auto slices = slices_of(tx, {100, 900, 3000});
  std::vector<std::uint8_t> rx(tx.size());
  const auto send_one = [&] {
    auto recv = world.engine(1).irecv(0, 1, rx.data(), rx.size());
    auto send = world.engine(0).isendv(1, 1, slices);
    world.wait(recv);
    world.wait(send);
  };
  for (int i = 0; i < 4; ++i) send_one();  // warm the pools

  const std::uint64_t before = allocs_so_far();
  constexpr int kMeasured = 16;
  for (int i = 0; i < kMeasured; ++i) send_one();
  const std::uint64_t delta = allocs_so_far() - before;
  EXPECT_EQ(delta, 0u) << delta << " allocations across " << kMeasured << " isendv calls";
  EXPECT_EQ(rx, tx);
}

}  // namespace
}  // namespace rails::core
