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

/// Fault tolerance (docs/FAULTS.md): chunk timeouts, retry/failover and
/// rail quarantine. Its timings are constants scaled by the estimator's
/// prediction (docs/FAULTS.md, "Constants"); they are inert on a healthy
/// fabric, where a timer simply expires unnoticed after its chunk
/// completed, so failover does not perturb fault-free timing.
struct FailoverConfig {
  bool enabled = true;
};

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
  /// Timeout/retry/quarantine behaviour on rail faults.
  FailoverConfig failover;
  /// End-to-end ACK/retransmit + wire-checksum layer (docs/FAULTS.md).
  ReliabilityConfig reliability;
  /// Online drift detection / adaptive recalibration (docs/CALIBRATION.md).
  sampling::RecalibrationConfig recalibration;
  /// Traffic-class scheduling, deadline admission, backpressure
  /// (docs/QOS.md). Default-off: a disabled engine is byte-for-byte the
  /// pre-QoS engine.
  qos::QosConfig qos;
  /// Memoize eager strategy decisions keyed on (sizes, qos classes,
  /// usable/idle rail sets, idle cores, decision epoch); invalidated on
  /// failover/quarantine/trust/profile transitions (docs/PERF.md). Only
  /// consulted when the strategy declares the decision cacheable.
  bool strategy_cache = true;
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
  /// True when no usable rail has work in flight — busy offsets are all
  /// zero, so busy-aware plans collapse to functions of the idle sets.
  bool all_usable_idle() const {
    for (RailId r = 0; r < rail_count(); ++r) {
      if (rail_usable(r) && rail_busy_until(r) > now) return false;
    }
    return true;
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
  std::vector<EagerPiece> pieces;

  std::size_t payload_bytes() const {
    std::size_t n = 0;
    for (const auto& p : pieces) n += p.len;
    return n;
  }
};

/// Result of plan_eager: emissions to post now. Sends not referenced by any
/// emission stay queued; the engine re-interrogates when a NIC frees up.
struct EagerSchedule {
  std::vector<EagerEmission> emissions;
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

  /// Declares that plan_eager's decision for this context is a pure
  /// function of (pending sizes, usable mask, idle-rail mask, idle-core
  /// mask, sampled profiles) — i.e. it consults no busy-time magnitudes and
  /// no internal mutable state — so the engine may replay a memoized
  /// emission plan instead of re-interrogating. Conservative default: no.
  virtual bool eager_plan_cacheable(const StrategyContext&,
                                    std::span<const SendRequest* const>) const {
    return false;
  }
};

}  // namespace rails::core
