// Ablation A2: offload signalling cost TO vs the split break-even size.
//
// §III-D measures TO = 3 µs (6 µs with preemption) and the conclusion calls
// for an optimized implementation to lower it. This ablation sweeps TO and
// reports (a) the smallest eager size at which parallel submission wins and
// (b) the latency gain at 32 KiB — quantifying how much a better tasklet
// path would buy, the paper's stated future work.
#include <cstdio>
#include <iostream>

#include "bench_support/table.hpp"
#include "fabric/presets.hpp"
#include "sampling/sampler.hpp"
#include "strategy/offload_model.hpp"
#include "strategy/rail_cost.hpp"

using namespace rails;

int main() {
  const auto profiles = sampling::sample_rails(
      {fabric::myri10g(), fabric::qsnet2()}, {1, 64u * 1024u, 1});
  const strategy::ProfileCost myri(&profiles[0].eager);
  const strategy::ProfileCost qs(&profiles[1].eager);
  const std::vector<strategy::SolverRail> rails = {{0, &myri, 0}, {1, &qs, 0}};

  bench::SeriesTable table("A2 — offload cost TO vs break-even and gain",
                           "TO (us)",
                           {"break-even (B)", "gain @8K (%)", "gain @32K (%)",
                            "gain @64K (%)"});

  auto gain_at = [&](std::size_t size, const strategy::OffloadConfig& cfg) {
    const auto plan = strategy::plan_eager(rails, size, 3, cfg);
    if (!plan.split) return 0.0;
    return (1.0 - static_cast<double>(plan.predicted) /
                      static_cast<double>(plan.single_rail_predicted)) * 100.0;
  };

  double break_even_at_0 = 0.0;
  double break_even_at_3 = 0.0;
  double break_even_at_10 = 0.0;
  for (double to_us : {0.0, 1.0, 3.0, 6.0, 10.0, 20.0}) {
    strategy::OffloadConfig cfg;
    cfg.signal_cost = usec(to_us);
    cfg.min_split_size = 1;  // let the model decide purely on predictions
    double break_even = 0.0;
    for (std::size_t s = 64; s <= 64_KiB; s <<= 1) {
      if (strategy::plan_eager(rails, s, 3, cfg).split) {
        break_even = static_cast<double>(s);
        break;
      }
    }
    table.add_row(std::to_string(static_cast<int>(to_us)),
                  {break_even, gain_at(8_KiB, cfg), gain_at(32_KiB, cfg),
                   gain_at(64_KiB, cfg)});
    if (to_us == 0.0) break_even_at_0 = break_even;
    if (to_us == 3.0) break_even_at_3 = break_even;
    if (to_us == 10.0) break_even_at_10 = break_even;
  }
  table.print(std::cout, 0);

  std::printf("\nshape checks:\n");
  bench::shape_check(std::cout, "break-even size grows with TO",
                     break_even_at_0 < break_even_at_3 &&
                         break_even_at_3 < break_even_at_10);
  bench::shape_check(std::cout,
                     "at the paper's TO=3us the break-even sits near 4 KiB",
                     break_even_at_3 >= 1024 && break_even_at_3 <= 16384);
  return bench::shape_failures();
}
