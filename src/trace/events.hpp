// The engine's event table: one vocabulary for the tracer, the flight
// recorder and the counters (docs/OBSERVABILITY.md, "Engine events").
//
// One row per kind, X(kind, string, counter, sinks): the EventKind, the
// string every sink prints for it, the RAILS_ENGINE_COUNTERS row that
// Engine::emit() bumps for it (`none` = no counter; the column is resolved
// in core/engine.hpp and ignored here), and the sinks that record it.
// Tracer kinds carry payload bytes in `a` and the predicted NIC end in `b`;
// the operands of the other kinds are listed in the docs table.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.hpp"

#define RAILS_ENGINE_EVENTS(X)                                                  \
  /* data plane */                                                              \
  X(kSubmit, "submit", sends, kBoth)             /* application called isend */ \
  X(kRecvPosted, "recv-posted", recvs, kTracer)  /* application called irecv */ \
  X(kEagerEmit, "eager-emit", none, kBoth)       /* piece handed to a NIC */    \
  X(kOffloadSignal, "offload-signal", offloaded_chunks, kBoth) /* TO charged */ \
  X(kRtsSent, "rts", none, kTracer)              /* rendezvous request out */   \
  X(kCtsSent, "cts", none, kTracer)              /* receiver acknowledged */    \
  X(kChunkPosted, "chunk", rdv_chunks, kBoth)    /* DMA chunk posted */         \
  X(kSendComplete, "send-complete", none, kBoth)                                \
  X(kRecvComplete, "recv-complete", none, kBoth)                                \
  X(kFailover, "failover", failovers, kBoth)     /* range re-split */           \
  /* fault tolerance (docs/FAULTS.md) */                                        \
  X(kTxError, "tx-error", tx_errors, kFlight)                                   \
  X(kChunkTimeout, "chunk-timeout", chunk_timeouts, kFlight)                    \
  X(kQuarantine, "quarantine", quarantines, kFlight)                            \
  X(kReprobe, "reprobe", reprobes, kFlight)                                     \
  X(kParseReject, "parse-reject", parse_rejects, kFlight)                       \
  /* end-to-end reliability */                                                  \
  X(kCorruptDetected, "corrupt-detected", rel_corruptions, kFlight)             \
  X(kRetransmit, "retransmit", rel_retransmits, kFlight)                        \
  X(kRetryExhausted, "retry-exhausted", rel_retry_exhausted, kFlight)           \
  X(kDupSuppressed, "dup-suppressed", rel_dup_suppressed, kFlight)              \
  /* recalibration (docs/CALIBRATION.md) */                                     \
  X(kTrustDemotion, "trust-demotion", trust_demotions, kFlight)                 \
  X(kTrustPromotion, "trust-promotion", trust_promotions, kFlight)              \
  X(kScaleCorrection, "scale-correction", recal_corrections, kFlight)           \
  X(kResample, "resample", recal_resamples, kFlight)                            \
  /* bundles and the health plane */                                            \
  X(kTrigger, "trigger", none, kFlight)          /* bundle requested */         \
  X(kSloAlert, "slo-alert", none, kFlight)

namespace rails::trace {

enum class EventKind : std::uint8_t {
#define RAILS_EVENT_KIND(kind, str, counter, sinks) kind,
  RAILS_ENGINE_EVENTS(RAILS_EVENT_KIND)
#undef RAILS_EVENT_KIND
};

/// Which sinks record a kind (the table's last column).
enum class Sinks : std::uint8_t { kTracer = 1, kFlight = 2, kBoth = 3 };

inline constexpr const char* kEventNames[] = {
#define RAILS_EVENT_NAME(kind, str, counter, sinks) str,
    RAILS_ENGINE_EVENTS(RAILS_EVENT_NAME)
#undef RAILS_EVENT_NAME
};
inline constexpr Sinks kEventSinks[] = {
#define RAILS_EVENT_SINKS(kind, str, counter, sinks) Sinks::sinks,
    RAILS_ENGINE_EVENTS(RAILS_EVENT_SINKS)
#undef RAILS_EVENT_SINKS
};

inline const char* to_string(EventKind kind) {
  return kEventNames[static_cast<std::size_t>(kind)];
}
inline bool recorded_by(EventKind kind, Sinks sink) {
  return (static_cast<unsigned>(kEventSinks[static_cast<std::size_t>(kind)]) &
          static_cast<unsigned>(sink)) != 0;
}

/// One engine event: the record Engine::emit() takes and every sink reads.
/// The tracer keeps it whole; the flight recorder keeps time, kind, node,
/// rail, msg_id, a and b.
struct Event {
  SimTime time = 0;
  NodeId node = 0;
  EventKind kind = EventKind::kSubmit;
  std::uint64_t msg_id = 0;
  Tag tag = 0;
  RailId rail = 0;
  CoreId core = 0;
  std::int64_t a = 0;  ///< tracer kinds: payload bytes
  std::int64_t b = 0;  ///< tracer kinds: predicted NIC end (emissions, chunks)
  /// QoS traffic class of the owning send (docs/QOS.md); 0 when QoS is off.
  std::uint32_t cls = 0;

  std::size_t bytes() const { return static_cast<std::size_t>(a); }
  SimTime nic_end() const { return b; }
};

}  // namespace rails::trace
