#include "strategy/offload_model.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace rails::strategy {

SimDuration parallel_eager_time(std::span<const SolverRail> rails,
                                std::span<const Chunk> chunks, SimDuration signal_cost) {
  SimDuration worst = 0;
  for (const Chunk& c : chunks) {
    const SolverRail* rail = nullptr;
    for (const auto& r : rails) {
      if (r.rail == c.rail) rail = &r;
    }
    RAILS_CHECK_MSG(rail != nullptr, "chunk references an unknown rail");
    worst = std::max(worst, rail->ready_offset + rail->cost->duration(c.bytes));
  }
  return signal_cost + worst;
}

EagerPlan plan_eager(std::span<const SolverRail> rails, std::size_t size,
                     unsigned idle_cores, const OffloadConfig& config, bool preempt) {
  EagerPlanScratch scratch;
  EagerPlan plan;
  plan_eager(rails, size, idle_cores, config, preempt, scratch, plan);
  return plan;
}

void plan_eager(std::span<const SolverRail> rails, std::size_t size, unsigned idle_cores,
                const OffloadConfig& config, bool preempt, EagerPlanScratch& scratch,
                EagerPlan& plan) {
  RAILS_CHECK(!rails.empty());
  RAILS_CHECK(size > 0);

  const std::size_t best = best_single_rail(rails, size);
  plan.single_rail_predicted = single_rail_time(rails[best], size);

  // Fallback plan: whole message on the best rail, submitted locally.
  plan.split = false;
  plan.chunks.assign(1, Chunk{rails[best].rail, 0, size});
  plan.predicted = plan.single_rail_predicted;

  // "the strategy splits the data in min{number of idle NICs, number of
  // idle cores} chunks at most" — each remote chunk needs its own core.
  const unsigned max_chunks = std::min<unsigned>(static_cast<unsigned>(rails.size()),
                                                 idle_cores);
  if (max_chunks < 2 || size < config.min_split_size) return;

  SplitResult& split = scratch.split;
  solve_equal_finish(rails, size, split);
  if (split.chunks.size() < 2) return;
  if (split.chunks.size() > max_chunks) {
    // Keep the `max_chunks` fastest rails and re-solve over that subset.
    std::sort(split.chunks.begin(), split.chunks.end(),
              [](const Chunk& a, const Chunk& b) { return a.bytes > b.bytes; });
    scratch.subset.clear();
    for (unsigned i = 0; i < max_chunks; ++i) {
      for (const auto& r : rails) {
        if (r.rail == split.chunks[i].rail) scratch.subset.push_back(r);
      }
    }
    solve_equal_finish(scratch.subset, size, split);
    if (split.chunks.size() < 2) return;
  }

  const SimDuration to = preempt ? config.preempt_cost : config.signal_cost;
  const SimDuration parallel = parallel_eager_time(rails, split.chunks, to);
  if (parallel < plan.single_rail_predicted) {
    plan.split = true;
    plan.chunks.assign(split.chunks.begin(), split.chunks.end());
    plan.predicted = parallel;
  }
}

}  // namespace rails::strategy
