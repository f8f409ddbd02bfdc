// Fault models for the simulated fabric.
//
// Real multirail deployments lose rails: links flap during cable
// renegotiation, a NIC firmware wedge fail-stops a port, congested switches
// degrade bandwidth, and rerouted paths add latency. The engine's busy-until
// prediction machinery (Fig. 2) is exactly what detects such anomalies —
// a chunk that blows through its predicted completion plus slack is treated
// as lost — so the fabric must be able to produce them on demand.
//
// A FaultSpec is injected per SimNic (SimNic::inject_fault). Semantics:
//  * kFailStop  — the link goes down at `at` and never recovers.
//  * kFlap      — the link is down during [at, at + duration); a duration of
//                 zero means "forever" (equivalent to kFailStop at `at`).
//  * kDegrade   — transfers starting within the window take `factor` times
//                 longer (multiplies into SimNic::set_perf_scale).
//  * kLatency   — deliveries of transfers starting within the window are
//                 postponed by `extra_latency`.
//
// Down windows drop segments: a segment whose flight interval overlaps a
// down window never reaches the receiver; the sending NIC reports it
// through its tx-error callback at the time delivery would have occurred —
// the simulation analogue of a completion-queue error. Degrade/latency
// faults never drop; they produce stragglers, which exercise the engine's
// timeout path instead of its error path.
//
// Data-plane faults model a hostile wire rather than a dead one. They are
// probabilistic (per-segment `rate`, drawn from the NIC's deterministic
// fault RNG) and, crucially, *silent*: the sender's completion queue still
// reports success, so only an end-to-end mechanism (CRC + ACK/retransmit,
// see docs/FAULTS.md) can detect them.
//  * kDrop    — with probability `rate` the wire eats the segment after the
//               local completion fires. No tx-error; the loss is invisible
//               to the sender until an ACK timeout infers it.
//  * kCorrupt — with probability `rate` a random payload bit is flipped in
//               flight (header-only segments have their stored CRC damaged
//               instead). Undetectable unless reliability is on: its
//               CRC32C rejects the copy and NACKs it for retransmission.
//  * kDup     — with probability `rate` the receiver sees the segment twice
//               (the second copy slightly later), as after a link-layer
//               retransmit whose original was not actually lost. With
//               reliability off only rendezvous tolerates the copy; a
//               duplicated eager message binds the next posted receive
//               with the same (src, tag) (docs/FAULTS.md).
//  * kReorder — each segment's delivery is postponed by a uniform-random
//               0..`reorder_window` multiples of the rail's wire latency
//               (gated on `rate`), letting later posts overtake it.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace rails::fabric {

enum class FaultKind : std::uint8_t {
  kFailStop = 0,  ///< link down from `at`, permanently
  kFlap,          ///< link down during [at, at + duration)
  kDegrade,       ///< transfers scaled by `factor` within the window
  kLatency,       ///< deliveries postponed by `extra_latency` within the window
  kDrop,          ///< silent per-segment loss with probability `rate`
  kCorrupt,       ///< per-segment bit flip with probability `rate`
  kDup,           ///< per-segment duplicate delivery with probability `rate`
  kReorder,       ///< per-segment bounded delivery shuffle (`reorder_window`)
};

const char* to_string(FaultKind kind);

/// True for the probabilistic wire faults (kDrop/kCorrupt/kDup/kReorder).
bool is_data_plane(FaultKind kind);

struct FaultSpec {
  FaultKind kind = FaultKind::kFailStop;
  SimTime at = 0;            ///< window start on the virtual clock
  SimDuration duration = 0;  ///< window length; 0 = forever (ignored by kFailStop)
  double factor = 1.0;       ///< kDegrade slowdown multiplier (>= 1)
  SimDuration extra_latency = 0;  ///< kLatency delivery penalty
  double rate = 0.0;         ///< data-plane fault probability per segment, [0, 1]
  unsigned reorder_window = 0;  ///< kReorder: max delivery slip, in wire-latency units
};

}  // namespace rails::fabric
