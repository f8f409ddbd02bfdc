// Strategy plug-in interface (§III-B).
//
// "the features proposed in this article are mainly organized around the
// implementation of a new NewMadeleine optimization strategy which actually
// is a plug-in called to gather the data requests and interrogated by the
// lower layer in order to know what to do at the appropriate time."
//
// The engine interrogates the strategy at the paper's three decision points:
//  * plan_eager     — just before managing the emission of eager packets
//                     (also re-invoked whenever a NIC becomes idle);
//  * plan_rendezvous — when a rendezvous acknowledgement (CTS) arrives and
//                     the bulk data must be scheduled across rails;
//  * control_rail   — which rail carries a control segment.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "fabric/nic.hpp"
#include "fabric/sim_cores.hpp"
#include "qos/traffic_class.hpp"
#include "sampling/estimator.hpp"
#include "sampling/recalibration.hpp"
#include "strategy/offload_model.hpp"
#include "strategy/split_solver.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/timeseries.hpp"

namespace rails::core {

struct SendRequest;

/// End-to-end reliable delivery (docs/FAULTS.md, "Data-plane faults &
/// reliable delivery"). Default-off: a disabled engine takes no reliability
/// branch at all, keeping headline metrics bit-identical to pre-reliability
/// builds. Enabled at zero fault rate, the layer costs one coalesced ACK
/// per link per ACK-delay window (virtual time) plus a CRC32C over each
/// sequenced segment's header and payload, computed once on send and once
/// on receive (host time; per payload byte, hardware-accelerated where the
/// CPU has carry-less multiply — docs/PERF.md, "Wire checksum").
struct ReliabilityConfig {
  bool enabled = false;
};

struct EngineConfig {
  /// Core the packet scheduler (strategy) runs on.
  CoreId scheduler_core = 0;
  /// Multicore eager-offload parameters (TO etc.).
  strategy::OffloadConfig offload;
  /// Overrides the sampled eager/rendezvous threshold when non-zero.
  std::size_t rdv_threshold_override = 0;
  /// End-to-end ACK/retransmit + wire-checksum layer (docs/FAULTS.md).
  ReliabilityConfig reliability;
  /// Online drift detection / adaptive recalibration (docs/CALIBRATION.md).
  sampling::RecalibrationConfig recalibration;
  /// Traffic-class scheduling, deadline admission, backpressure
  /// (docs/QOS.md). Default-off: a disabled engine is byte-for-byte the
  /// pre-QoS engine.
  qos::QosConfig qos;
  /// Health-plane time-series sampler (docs/OBSERVABILITY.md). Default-off:
  /// a disabled engine arms no health tick and samples nothing.
  telemetry::TimeseriesConfig timeseries;
  /// Declarative SLO objectives evaluated on the health tick; a firing
  /// burn-rate alert escalates into the flight recorder. Requires
  /// `timeseries.enabled` (the tick drives evaluation) and QoS (the
  /// per-class sources).
  std::vector<telemetry::SloSpec> slos;
};

/// Everything a strategy may inspect when interrogated.
struct StrategyContext {
  SimTime now = 0;
  const sampling::Estimator* estimator = nullptr;
  std::span<fabric::SimNic* const> nics;  ///< this node's NICs, indexed by rail
  fabric::SimCores* cores = nullptr;
  const EngineConfig* config = nullptr;

  /// Per-rail health mask maintained by the engine's fault-tolerance layer
  /// (empty = every rail usable, which keeps hand-built contexts valid).
  /// Quarantined rails keep their sampled profiles but must be skipped by
  /// strategies until a re-probe succeeds. The engine guarantees at least
  /// one usable rail (an all-quarantined node falls back to all-usable).
  std::span<const std::uint8_t> usable;

  /// Per-rail cost multipliers (≥ 1) from the recalibration trust layer
  /// (empty = every rail fully trusted). A SUSPECT rail's predictions are
  /// inflated by its penalty so the solver hands it smaller chunks.
  std::span<const double> trust_penalty;
  /// Set when some *usable* rail is UNTRUSTED or mid-resample: its numbers
  /// cannot feed the solver, so knowledge-based strategies fall back to
  /// knowledge-free iso weighting until trust is re-earned.
  bool trust_compromised = false;

  std::uint32_t rail_count() const { return static_cast<std::uint32_t>(nics.size()); }
  SimTime rail_busy_until(RailId rail) const { return nics[rail]->busy_until(); }
  SimDuration rail_ready_offset(RailId rail) const {
    const SimTime b = rail_busy_until(rail);
    return b > now ? b - now : 0;
  }
  bool rail_usable(RailId rail) const { return usable.empty() || usable[rail] != 0; }
  double rail_trust_penalty(RailId rail) const {
    return trust_penalty.empty() ? 1.0 : trust_penalty[rail];
  }
};

/// One piece of one application message inside an eager emission.
struct EagerPiece {
  const SendRequest* send = nullptr;
  std::size_t offset = 0;
  std::size_t len = 0;
};

/// One eager segment to post: possibly several aggregated pieces, possibly
/// submitted from a remote core (offload_core set) at a TO signalling cost.
struct EagerEmission {
  RailId rail = 0;
  std::optional<CoreId> offload_core;
  std::span<const EagerPiece> pieces;

  std::size_t payload_bytes() const {
    std::size_t n = 0;
    for (const auto& p : pieces) n += p.len;
    return n;
  }
};

/// Result of plan_eager: emissions to post now. Sends not referenced by any
/// emission stay queued; the engine re-interrogates when a NIC frees up.
/// The emissions and their pieces view the planning strategy's scratch
/// (EagerPlanBuilder): they stay valid until the next plan_eager on the
/// same strategy.
struct EagerSchedule {
  std::span<const EagerEmission> emissions;
  /// Set when no other destination group could emit anything in the same
  /// context either (typically: no usable rail is idle, and the strategy
  /// never posts onto a busy one). The engine then ends the activation
  /// without interrogating the remaining groups, so a wake-up costs the
  /// groups it can emit plus one. Setting it wrongly changes results:
  /// clear it whenever the decision depends on the group itself (a busy
  /// winner that another group might not pick) or when busy rails can
  /// still be fed (a multicore split needs only idle remote cores).
  bool blocked = false;
  bool empty() const { return emissions.empty(); }
};

/// Storage a strategy builds its eager plans in, reused across calls so a
/// steady-state plan touches no allocator (docs/PERF.md, "Plan scratch").
/// Pieces are added to the emission opened last; finish() returns views
/// into this storage, which the next begin() overwrites.
class EagerPlanBuilder {
 public:
  void begin() {
    pieces_.clear();
    emissions_.clear();
    starts_.clear();
  }
  void open(RailId rail, std::optional<CoreId> offload_core = std::nullopt) {
    emissions_.push_back({rail, offload_core, {}});
    starts_.push_back(pieces_.size());
  }
  void add(const EagerPiece& piece) { pieces_.push_back(piece); }
  EagerSchedule finish() {
    const std::span<const EagerPiece> all(pieces_);
    for (std::size_t i = 0; i < emissions_.size(); ++i) {
      const std::size_t end = i + 1 < starts_.size() ? starts_[i + 1] : all.size();
      emissions_[i].pieces = all.subspan(starts_[i], end - starts_[i]);
    }
    return {.emissions = emissions_};
  }

 private:
  std::vector<EagerPiece> pieces_;
  std::vector<EagerEmission> emissions_;
  std::vector<std::size_t> starts_;  ///< first piece of each emission
};

class Strategy {
 public:
  virtual ~Strategy() = default;
  virtual std::string name() const = 0;

  /// Plans emission of the queued eager sends to one destination, in
  /// pack-list order (the engine interrogates group by group, oldest
  /// group first, until a plan comes back `blocked`).
  virtual EagerSchedule plan_eager(const StrategyContext& ctx,
                                   std::span<const SendRequest* const> pending) = 0;

  /// Plans the DMA chunk layout for a rendezvous message of `len` bytes
  /// (called when the CTS arrives).
  virtual strategy::SplitResult plan_rendezvous(const StrategyContext& ctx,
                                                std::size_t len) = 0;

  /// Rail used for control segments (RTS/CTS/FIN). Default: the rail with
  /// the lowest predicted completion for a zero-byte eager message.
  virtual RailId control_rail(const StrategyContext& ctx) const;

  // No engine caller; kept for railbench's TracedStrategy (ROADMAP item 1 removes it).
  virtual bool eager_plan_cacheable(const StrategyContext&,
                                    std::span<const SendRequest* const>) const {
    return false;
  }

 protected:
  EagerPlanBuilder plan_;  ///< scratch the returned EagerSchedule views
};

}  // namespace rails::core
