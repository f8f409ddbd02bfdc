// Traffic classes for the QoS arbiter (docs/QOS.md).
//
// The optimizer layer orders a pack list purely by predicted duration; it
// has no notion of competing flows, so one bulk rendezvous transfer can
// occupy every rail to completion and starve latency-sensitive eager
// traffic. This header defines the vocabulary the arbiter speaks: a small
// set of built-in classes (LATENCY / BULK / BACKGROUND), user-defined
// classes loaded from configs/, and the default-by-size rule that keeps
// existing callers unchanged.
//
// The subsystem is default-off (QosConfig::enabled = false): an engine
// built without it behaves byte-for-byte like before.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace rails::qos {

/// Index into QosConfig::classes. The built-in classes occupy the first
/// three slots; user-defined classes follow.
using ClassId = std::uint32_t;

inline constexpr ClassId kLatency = 0;     ///< small, latency-sensitive eager traffic
inline constexpr ClassId kBulk = 1;        ///< large rendezvous transfers
inline constexpr ClassId kBackground = 2;  ///< best-effort; lowest share

/// Sentinel for "classify by size" (the default on every submit, so callers
/// that never heard of traffic classes keep their behaviour).
inline constexpr ClassId kAutoClass = ~ClassId{0};

/// One traffic class: scheduling weight, queue bound, default deadline.
struct ClassSpec {
  std::string name;
  /// DRR share among the non-strict classes (> 0). Per arbitration round a
  /// backlogged class is credited weight * quantum bytes of deficit.
  double weight = 1.0;
  /// Drained before any DRR grant (LATENCY). A strict class can still not
  /// jump a chunk already on the wire — preemption happens at chunk
  /// boundaries.
  bool strict_priority = false;
  /// Bound of the per-class submit queue (messages). try_isend refuses
  /// beyond it; plain isend still enqueues.
  std::size_t queue_capacity = 1024;
  /// Applied to sends submitted without an explicit deadline (0 = none):
  /// deadline = submit time + default_deadline, admission-checked like any
  /// deadline-tagged send.
  SimDuration default_deadline = 0;
};

/// All QoS knobs, carried inside EngineConfig. Defaults are inert.
struct QosConfig {
  bool enabled = false;
  /// DRR quantum: bytes of deficit credited per weight unit per round.
  std::size_t quantum = 64_KiB;
  /// Starvation protection: a message waiting longer than this is granted
  /// in the strict pass regardless of its class's deficit.
  SimDuration aging = usec(1000);
  /// Classes in ClassId order. Empty = the three built-ins.
  std::vector<ClassSpec> classes;
};

/// The three built-in classes (used when QosConfig::classes is empty).
inline std::vector<ClassSpec> builtin_classes() {
  ClassSpec latency;
  latency.name = "latency";
  latency.weight = 8.0;
  latency.strict_priority = true;
  ClassSpec bulk;
  bulk.name = "bulk";
  bulk.weight = 4.0;
  ClassSpec background;
  background.name = "background";
  background.weight = 1.0;
  return {latency, bulk, background};
}

/// Default class assignment by size. The boundary is `>=` on the cutoff so
/// a message exactly at the eager/rendezvous threshold lands in exactly one
/// class (BULK), mirroring protocol_for's strictly-greater rendezvous test.
inline ClassId default_class(std::size_t len, std::size_t cutoff) {
  return len >= cutoff ? kBulk : kLatency;
}

}  // namespace rails::qos
