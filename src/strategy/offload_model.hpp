// Multicore eager-send model (§II-C, §III-D, eq. 1).
//
// Eager packets involve CPU-consuming PIO copies: split chunks submitted
// from ONE core serialise (Fig. 4a), so splitting small messages only pays
// off when each chunk's copy runs on its own core (Fig. 4c). Offloading a
// chunk to an idle core costs TO ≈ 3 µs of signalling (6 µs when a running
// thread must be preempted first). The decision model evaluates
//
//     T(size) = TO + max_i( TD(chunk_i, rail_i) )          (eq. 1)
//
// against the best single-rail aggregated send and picks the cheaper one;
// the chunk count is capped by min(idle NICs, idle cores) (§III-B).
#pragma once

#include <cstddef>
#include <span>

#include "strategy/split_solver.hpp"

namespace rails::strategy {

struct OffloadConfig {
  /// TO: strategy-to-remote-core signalling + synchronisation cost.
  SimDuration signal_cost = usec(3.0);
  /// TO when the target core runs a computing thread that must be preempted.
  SimDuration preempt_cost = usec(6.0);
  /// Never split messages below this size (tasklet setup dwarfs the copy).
  std::size_t min_split_size = 1024;
};

struct EagerPlan {
  /// True when the message is split across rails with per-core submission;
  /// false when it is sent whole (aggregated) over `chunks[0].rail`.
  bool split = false;
  std::vector<Chunk> chunks;
  /// Predicted completion, offsets and TO included.
  SimDuration predicted = 0;
  /// Prediction for the best single-rail alternative (reporting/ablation).
  SimDuration single_rail_predicted = 0;
};

/// Evaluates eq. (1) for a precomputed split.
SimDuration parallel_eager_time(std::span<const SolverRail> rails,
                                std::span<const Chunk> chunks, SimDuration signal_cost);

/// Plans one eager message of `size` bytes.
///
/// `rails` carries every candidate rail (with eager-path cost curves and
/// busy offsets); `idle_cores` is the number of cores available for remote
/// submission *in addition to* the strategy's own core; `preempt` selects
/// the higher TO of §III-D.
EagerPlan plan_eager(std::span<const SolverRail> rails, std::size_t size,
                     unsigned idle_cores, const OffloadConfig& config = {},
                     bool preempt = false);

/// Storage plan_eager works in: the solver's split and the rail subset it
/// re-solves over when cores are scarcer than rails.
struct EagerPlanScratch {
  SplitResult split;
  std::vector<SolverRail> subset;
};

/// The same plan, written into `out`, with every vector reused from `out`
/// and `scratch`, so a caller that plans repeatedly does not allocate.
void plan_eager(std::span<const SolverRail> rails, std::size_t size, unsigned idle_cores,
                const OffloadConfig& config, bool preempt, EagerPlanScratch& scratch,
                EagerPlan& out);

}  // namespace rails::strategy
