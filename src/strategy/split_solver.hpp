// Message split solvers (§II-B, Fig. 1c).
//
// Goal: split a message so that "the time required to send each chunk of a
// message is equal. This way, each chunk transfer will end at the same time,
// minimizing the transfer time of the whole message."
//
// Two solvers are provided:
//  * dichotomy_split — the paper's own two-rail algorithm: bisect the split
//    ratio until the predicted finish times of both chunks match.
//  * solve_equal_finish — a k-rail generalisation that bisects on the common
//    deadline instead of the ratio. Busy rails whose availability offset
//    exceeds the deadline naturally receive zero bytes, which implements the
//    NIC-selection rule of Fig. 2 for free.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "strategy/rail_cost.hpp"

namespace rails::strategy {

struct Chunk {
  RailId rail = 0;
  std::size_t offset = 0;
  std::size_t bytes = 0;
};

struct SplitResult {
  std::vector<Chunk> chunks;   ///< non-empty chunks only, offsets consecutive
  SimDuration makespan = 0;    ///< predicted completion (including ready offsets)
  unsigned iterations = 0;     ///< solver iterations actually used
  SimDuration imbalance = 0;   ///< max |finish_i - finish_j| over used rails
  /// Predicted finish time of each chunk (aligned with `chunks`, measured
  /// from the decision instant, ready offsets included). This is what the
  /// telemetry PredictionTracker compares against the fabric's actual chunk
  /// completions. Empty when a strategy hand-builds the result without
  /// going through a solver.
  std::vector<SimDuration> finish_times;
};

struct DichotomyConfig {
  unsigned max_iterations = 24;
  /// Stop when the two predicted finish times differ by at most this much.
  SimDuration tolerance = 500;  // 0.5 µs
};

/// The paper's algorithm, restricted to two rails. `total` bytes are split
/// into a chunk on `a` and a chunk on `b`; the ratio starts at 1/2 and is
/// bisected until both predicted finish times are equivalent.
SplitResult dichotomy_split(const SolverRail& a, const SolverRail& b, std::size_t total,
                            const DichotomyConfig& config = {});

/// K-rail equal-finish solver. Bisects the deadline T: each rail contributes
/// max_bytes_within(T - ready_offset) bytes; the smallest T whose aggregate
/// capacity covers `total` is the optimum. Surplus capacity at the final T is
/// trimmed proportionally so chunk offsets exactly tile the message.
SplitResult solve_equal_finish(std::span<const SolverRail> rails, std::size_t total);
/// The same split, written into `out` so a caller that plans repeatedly
/// reuses its vectors' storage.
void solve_equal_finish(std::span<const SolverRail> rails, std::size_t total,
                        SplitResult& out);

/// Convenience: predicted completion of sending everything on one rail.
SimDuration single_rail_time(const SolverRail& rail, std::size_t total);

/// Best single rail (index into `rails`) by predicted completion.
std::size_t best_single_rail(std::span<const SolverRail> rails, std::size_t total);

}  // namespace rails::strategy
