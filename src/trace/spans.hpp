// Causal span layer over the flat trace::Event stream.
//
// The Tracer records *events*; this module lifts them into per-message span
// trees and attributes end-to-end latency to layers, because the paper's
// core claims are temporal: hetero-split chunks should finish simultaneously
// (Fig. 1c), and offload costs a measurable TO ≈ 3 µs per eq. (1). For every
// sender-side message the analyzer reconstructs
//
//   submit ──queueing──► first activity (RTS / offload signal / emission)
//          ──handshake─► first DMA chunk           (rendezvous only)
//          ──stagger───► critical chunk launched
//          ──offload───► critical chunk's PIO starts (measured TO)
//          ──wire──────► critical chunk leaves the NIC
//          ──sync──────► send-complete (FIN return / straggler wait)
//
// where the *critical chunk* is the emission or DMA chunk predicted to leave
// its NIC last. The six layers are successive deltas of a monotone cursor
// clamped to [submit, complete], so they are each non-negative and sum
// EXACTLY to the total latency — an attribution that does not tile the
// message's lifetime is a bug, not a rounding error.
//
// Two derived observables close the loop on the paper:
//  * finish-skew — max minus min predicted NIC-end over the message's
//    chunks: the direct test of the equal-finish property (§II-B);
//  * measured TO — offload-signal to PIO-start per offloaded emission,
//    compared against the configured 3 µs signalling cost of eq. (1).
//
// A message whose submit or completion record was evicted from a bounded
// tracer is reported as *incomplete* and excluded from attribution — a
// partial event window must never fabricate a span.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "trace/tracer.hpp"

namespace rails::trace {

/// One reconstructed NIC activity span (eager emission or DMA chunk).
/// Aggregated eager pieces sharing a segment collapse into one span.
struct ChunkSpan {
  RailId rail = 0;
  CoreId core = 0;
  SimTime start = 0;        ///< host/PIO start
  SimTime nic_end = 0;      ///< predicted wire departure
  std::size_t bytes = 0;
  bool eager = false;       ///< eager emission (vs rendezvous DMA chunk)
  bool offloaded = false;   ///< submitted from a remote core (TO charged)
  SimTime signal_time = -1; ///< offload signal instant; -1 when not offloaded
};

/// Per-message latency attribution. All fields are non-negative and
/// queueing + handshake + stagger + offload_sync + wire + completion_sync
/// == total, by construction.
struct CriticalPath {
  SimDuration total = 0;
  SimDuration queueing = 0;        ///< submit -> first scheduling activity
  SimDuration handshake = 0;       ///< RTS -> first DMA chunk (CTS wait + split planning)
  SimDuration stagger = 0;         ///< first emission -> critical chunk launched
  SimDuration offload_sync = 0;    ///< critical chunk's measured TO (offloaded only)
  SimDuration wire = 0;            ///< critical chunk's NIC time
  SimDuration completion_sync = 0; ///< last wire departure -> send-complete (FIN/straggler)
  RailId critical_rail = 0;        ///< rail that carried the critical chunk

  SimDuration sum() const {
    return queueing + handshake + stagger + offload_sync + wire + completion_sync;
  }
};

/// Span tree of one sender-side message.
struct MessageSpans {
  NodeId node = 0;
  std::uint64_t msg_id = 0;
  Tag tag = 0;
  std::size_t bytes = 0;
  bool rendezvous = false;
  /// QoS traffic class (docs/QOS.md); 0 when the subsystem is off.
  std::uint32_t cls = 0;

  /// Both the submit and the send-complete records were retained. Only
  /// complete messages carry a critical-path attribution.
  bool complete = false;
  /// Activity was seen but the submit record is missing — the head of the
  /// message was evicted from a bounded tracer.
  bool head_evicted = false;

  SimTime submit = -1;
  SimTime finish = -1;
  SimTime rts = -1;

  unsigned offload_signals = 0;
  unsigned failovers = 0;
  std::vector<ChunkSpan> chunks;

  CriticalPath path;  ///< valid iff complete && !chunks.empty()

  /// max - min predicted NIC-end over the chunks (>= 2 chunks, complete
  /// messages only): the equal-finish property, measured.
  std::optional<SimDuration> finish_skew;
  /// Measured TO per offloaded emission: signal -> PIO start.
  std::vector<SimDuration> measured_to;
};

/// Whole-trace analysis: one MessageSpans per sender-side message plus
/// cross-message aggregates.
struct SpanAnalysis {
  std::vector<MessageSpans> messages;  ///< ordered by first retained event
  unsigned complete_count = 0;
  unsigned incomplete_count = 0;
  CriticalPath totals;  ///< per-layer sums over complete messages

  /// Per-traffic-class latency attribution (complete messages). Populated
  /// only when some message carried a nonzero class id, i.e. QoS was on.
  struct ClassTotals {
    std::uint32_t cls = 0;
    unsigned count = 0;
    CriticalPath totals;
  };
  std::vector<ClassTotals> class_totals;  ///< ordered by class id
  std::vector<SimDuration> skew_samples;  ///< ns, complete multi-chunk messages
  std::vector<SimDuration> to_samples;    ///< ns, every offloaded emission

  /// The `railsctl spans` report: per-message critical-path table, layer
  /// shares, finish-skew and measured-TO histograms.
  void dump(std::ostream& os) const;
};

/// Reconstructs spans from a chronological (oldest-first) event window.
SpanAnalysis analyze_spans(std::span<const Event> events);
/// Convenience: snapshots the tracer first.
SpanAnalysis analyze_spans(const Tracer& tracer);

/// Appends the analysis to a Chrome-trace stream as nested async spans
/// (cat "cp": message root + per-layer children) plus flow arrows from each
/// submit to its chunk spans on the rail tracks. Compose with
/// Tracer::dump_chrome_trace_events on one ChromeTraceSink to get a single
/// file with both the raw event lanes and the causal overlay.
void emit_chrome_spans(ChromeTraceSink& sink, const SpanAnalysis& analysis);

/// log2-bucketed histogram of durations (printed in microseconds).
void print_duration_histogram(std::ostream& os, const char* title,
                              std::span<const SimDuration> samples_ns);

}  // namespace rails::trace
