// The strategy plug-in catalogue.
//
// Baselines (§II-A / Fig. 1 / Fig. 3):
//  * SingleRail        — everything on one fixed rail (Fig. 1a degenerate);
//  * GreedyBalance     — "when a NIC becomes idle, it looks after the next
//                        communication": per-message dynamic balancing, no
//                        aggregation, no splitting (Fig. 3's losing curve);
//  * AggregateFastest  — aggregate pending eager packets onto the fastest
//                        available rail (Fig. 4b); best single rail for
//                        rendezvous;
//  * IsoSplit          — rendezvous split into equal-size chunks over all
//                        rails (Fig. 1b / Fig. 8 "Iso-split");
//  * FixedRatioSplit   — OpenMPI-style split by asymptotic bandwidth ratio,
//                        independent of message size and NIC state (§II-A).
//
// The paper's contribution:
//  * HeteroSplit          — sampling-based equal-finish split with busy-NIC
//                           awareness (Fig. 1c / Fig. 2 / Fig. 8);
//  * MulticoreHeteroSplit — HeteroSplit plus multicore eager sends: medium
//                           eager messages are split and submitted from idle
//                           cores at a TO signalling cost (Fig. 7 / eq. 1).
#pragma once

#include <memory>
#include <vector>

#include "core/strategy_iface.hpp"
#include "strategy/rail_cost.hpp"

namespace rails::core {

class SingleRail final : public Strategy {
 public:
  explicit SingleRail(RailId rail) : rail_(rail) {}
  std::string name() const override;
  EagerSchedule plan_eager(const StrategyContext& ctx,
                           std::span<const SendRequest* const> pending) override;
  strategy::SplitResult plan_rendezvous(const StrategyContext& ctx,
                                        std::size_t len) override;
  RailId control_rail(const StrategyContext&) const override { return rail_; }

 private:
  RailId rail_;
};

class GreedyBalance final : public Strategy {
 public:
  std::string name() const override { return "greedy-balance"; }
  EagerSchedule plan_eager(const StrategyContext& ctx,
                           std::span<const SendRequest* const> pending) override;
  strategy::SplitResult plan_rendezvous(const StrategyContext& ctx,
                                        std::size_t len) override;

 private:
  std::vector<RailId> idle_;  ///< plan scratch: the idle usable rails
};

class AggregateFastest : public Strategy {
 public:
  std::string name() const override { return "aggregate-fastest"; }
  EagerSchedule plan_eager(const StrategyContext& ctx,
                           std::span<const SendRequest* const> pending) override;
  strategy::SplitResult plan_rendezvous(const StrategyContext& ctx,
                                        std::size_t len) override;
};

class IsoSplit final : public AggregateFastest {
 public:
  std::string name() const override { return "iso-split"; }
  strategy::SplitResult plan_rendezvous(const StrategyContext& ctx,
                                        std::size_t len) override;
};

class FixedRatioSplit final : public AggregateFastest {
 public:
  std::string name() const override { return "fixed-ratio-split"; }
  strategy::SplitResult plan_rendezvous(const StrategyContext& ctx,
                                        std::size_t len) override;
};

class HeteroSplit : public AggregateFastest {
 public:
  std::string name() const override { return "hetero-split"; }
  strategy::SplitResult plan_rendezvous(const StrategyContext& ctx,
                                        std::size_t len) override;

 protected:
  // Solver-input scratch, reused across calls.
  std::vector<strategy::ProfileCost> costs_;
  std::vector<strategy::SolverRail> rails_;  ///< points into costs_
};

class MulticoreHeteroSplit : public HeteroSplit {
 public:
  std::string name() const override { return "multicore-hetero-split"; }
  EagerSchedule plan_eager(const StrategyContext& ctx,
                           std::span<const SendRequest* const> pending) override;

 protected:
  /// The idle cores other than the scheduler's, nearest first. The list
  /// is plan scratch: it stays valid until the next call.
  const std::vector<CoreId>& idle_remote_cores(const StrategyContext& ctx);

 private:
  // Split-plan scratch, reused across calls.
  strategy::EagerPlanScratch split_scratch_;
  strategy::EagerPlan split_;
  std::vector<CoreId> idle_cores_;
};

/// Batch spreading (§II: "data packets can be spread across the available
/// networks, increasing the message rate", realised via §II-C's multicore
/// submission): a burst of small messages is partitioned into one
/// aggregated segment per idle rail, each submitted from its own idle core
/// at the TO cost. Falls back to single-rail aggregation whenever the
/// prediction says the parallel copies would not pay for the signalling.
class BatchSpread final : public MulticoreHeteroSplit {
 public:
  std::string name() const override { return "batch-spread"; }
  EagerSchedule plan_eager(const StrategyContext& ctx,
                           std::span<const SendRequest* const> pending) override;

 private:
  // Plan scratch, reused across calls.
  struct Bin {
    std::size_t bytes = 0;
    std::size_t sends = 0;
  };
  std::vector<RailId> idle_rails_;
  std::vector<std::size_t> order_;   ///< pending indices, longest first
  std::vector<std::size_t> bin_of_;  ///< bin of each pending send
  std::vector<Bin> bins_;
  std::vector<const SendRequest*> in_order_;  ///< one bin's sends
};

/// Factory by name ("single-rail:0", "greedy-balance", "iso-split", ...).
std::unique_ptr<Strategy> make_strategy(const std::string& name);

}  // namespace rails::core
