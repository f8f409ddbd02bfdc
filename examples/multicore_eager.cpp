// Scenario: latency-sensitive medium messages on a multicore node (Fig. 7).
//
// Small messages are CPU-bound: the PIO copy runs on the submitting core,
// so splitting across rails from one core serialises (Fig. 4a). This
// example shows the engine signalling idle cores to submit chunks in
// parallel at a TO cost (eq. 1), and measures the real signalling cost on
// this host with the worker pool — the §III-D numbers.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "core/world.hpp"
#include "rt/worker_pool.hpp"

using namespace rails;

int main() {
  core::World world(core::paper_testbed("multicore-hetero-split"));
  std::printf("node topology: %s\n",
              world.fabric().cores(0).topology().describe().c_str());
  std::printf("engine eager/rendezvous threshold: %zu B\n\n",
              world.engine(0).rdv_threshold());

  std::printf("one-way latency (us) — aggregated on one rail vs multicore split:\n");
  std::printf("  %-8s %12s %12s %10s %8s\n", "size", "aggregated", "multicore",
              "gain", "chunks");
  for (std::size_t size = 256; size <= 32_KiB; size <<= 1) {
    world.set_strategy("aggregate-fastest");
    const double agg = to_usec(world.measure_one_way(size));

    world.set_strategy("multicore-hetero-split");
    world.engine(0).reset_stats();
    const double split = to_usec(world.measure_one_way(size));
    const auto& stats = world.engine(0).stats();
    const unsigned chunks =
        stats.offloaded_chunks > 0 ? static_cast<unsigned>(stats.offloaded_chunks) : 1;

    std::printf("  %-8zu %9.1f us %9.1f us %+8.1f%% %8u\n", size, agg, split,
                (1.0 - split / agg) * 100.0, chunks);
  }
  std::printf("(tiny messages fall back to aggregation: the TO = %.0f us\n"
              " signalling cost dwarfs their copy time — Fig. 9's break-even)\n\n",
              to_usec(world.engine(0).config().offload.signal_cost));

  // The engine charges TO = 3 us on the virtual clock, the paper's measured
  // value. What does the signalling primitive cost on THIS machine?
  rt::WorkerPool pool(3);
  const double measured_to = pool.calibrate_signal_cost_us(128);
  std::printf("real tasklet signalling cost on this host: %.2f us "
              "(paper: 3 us signal / 6 us preempt)\n", measured_to);

  // And the offloaded-copy path itself, end to end on real threads: hand two
  // memcpy chunks to two workers and time the parallel copy.
  const std::size_t size = 32_KiB;
  std::vector<std::uint8_t> src(size, 0x7E);
  std::vector<std::uint8_t> dst_a(size / 2);
  std::vector<std::uint8_t> dst_b(size - size / 2);
  std::atomic<int> done{0};
  const auto start = std::chrono::steady_clock::now();
  pool.submit_to(0, rt::Tasklet([&] {
                   memcpy(dst_a.data(), src.data(), dst_a.size());
                   done.fetch_add(1);
                 },
                 rt::TaskPriority::kTasklet));
  pool.submit_to(1, rt::Tasklet([&] {
                   memcpy(dst_b.data(), src.data() + dst_a.size(), dst_b.size());
                   done.fetch_add(1);
                 },
                 rt::TaskPriority::kTasklet));
  while (done.load() != 2) {
  }
  const double copy_us = std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  std::printf("parallel 32 KiB copy via two offloaded tasklets: %.2f us\n", copy_us);
  return 0;
}
