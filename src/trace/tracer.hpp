// Execution tracing for the communication engine.
//
// NewMadeleine ships with trace-based visualisation of its scheduling
// decisions; this is the equivalent observability layer. When a Tracer is
// attached to an Engine, every event whose RAILS_ENGINE_EVENTS row names the
// tracer (submission, emission, chunk post, completion) is recorded with its
// virtual timestamp, rail, core and byte count. Traces are queryable
// in-process (per-message timelines, per-rail utilisation) and exportable as
// CSV or as Chrome-trace JSON (chrome://tracing / Perfetto).
//
// Capacity: an unbounded tracer keeps every event; constructing with
// Tracer{max_events} bounds memory with a ring buffer — once full, each new
// event overwrites the oldest and dropped() counts the evictions, so long
// benchmark runs keep the most recent window instead of exhausting memory.
//
// Thread safety: record() and every query are serialised on an internal
// mutex, so offload workers may emit concurrently with the scheduler core.
// The lock is uncontended in the single-threaded DES configurations and a
// handful of nanoseconds when it is not; the flight recorder (see
// flight_recorder.hpp) is the lock-free path for truly hot producers.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "trace/events.hpp"

namespace rails::trace {

/// Per-message summary reconstructed from a trace.
struct MessageTimeline {
  std::uint64_t msg_id = 0;
  SimTime submit = -1;
  SimTime first_emission = -1;
  SimTime complete = -1;
  unsigned chunks = 0;
  unsigned offloaded = 0;
  std::size_t bytes = 0;

  /// Submission-to-first-emission delay. nullopt when either endpoint was
  /// not recorded (message still queued, or its events were evicted from a
  /// bounded tracer) — an incomplete message is NOT an instant one.
  std::optional<SimDuration> queueing_delay() const {
    if (first_emission < 0 || submit < 0) return std::nullopt;
    return first_emission - submit;
  }
  /// Submission-to-completion latency; nullopt when incomplete (see above).
  std::optional<SimDuration> total_latency() const {
    if (complete < 0 || submit < 0) return std::nullopt;
    return complete - submit;
  }
};

/// Incremental Chrome-trace JSON writer. Opens the trace envelope on
/// construction; each emit() appends one complete record object (no
/// trailing comma — the sink manages separators); close() writes the
/// closing brackets. Lets several producers (raw tracer events, span
/// overlays) share a single valid trace file.
class ChromeTraceSink {
 public:
  explicit ChromeTraceSink(std::ostream& os);
  ~ChromeTraceSink() { close(); }
  ChromeTraceSink(const ChromeTraceSink&) = delete;
  ChromeTraceSink& operator=(const ChromeTraceSink&) = delete;

  /// Appends one JSON record object (e.g. `{"name":...,"ph":"X",...}`).
  void emit(const char* record);
  /// Idempotent; also invoked by the destructor.
  void close();

 private:
  std::ostream& os_;
  bool first_ = true;
  bool closed_ = false;
};

class Tracer {
 public:
  Tracer() = default;
  /// Bounded tracer: keeps the most recent `max_events` events in a ring.
  explicit Tracer(std::size_t max_events) : max_events_(max_events) {}

  void record(const Event& event);

  bool empty() const { return size() == 0; }
  std::size_t size() const;
  /// Ring capacity; 0 means unbounded.
  std::size_t capacity() const { return max_events_; }
  /// Events evicted from a bounded tracer since the last clear().
  std::uint64_t dropped() const;
  /// Copy of the retained events, oldest first.
  std::vector<Event> snapshot() const;
  void clear();

  /// Events of one kind, oldest first.
  std::vector<Event> of_kind(EventKind kind) const;

  /// Reconstructs the timeline of one sender-side message.
  std::optional<MessageTimeline> message(NodeId node, std::uint64_t msg_id) const;

  /// Payload bytes handed to each rail (emissions + chunks), highest rail
  /// index observed defines the vector length.
  std::vector<std::uint64_t> bytes_per_rail() const;

  /// Busy time per rail within [begin, end], from emission nic_end spans.
  std::vector<SimDuration> rail_busy_time() const;

  /// CSV export: one event per line with a header row, oldest first.
  void dump_csv(std::ostream& os) const;

  /// Chrome-trace (chrome://tracing / Perfetto) JSON export. NIC activity
  /// (eager emissions, DMA chunks) becomes complete "X" spans on a
  /// per-node/per-rail track; everything else becomes instant events.
  /// Timestamps are virtual microseconds.
  void dump_chrome_trace(std::ostream& os) const;

  /// Same records, but onto a caller-owned sink so additional record
  /// streams (span overlays, flow arrows) can share the trace file.
  void dump_chrome_trace_events(ChromeTraceSink& sink) const;

  /// ASCII per-rail Gantt chart of NIC activity, `width` columns wide.
  void render_gantt(std::ostream& os, unsigned width = 72) const;

 private:
  /// Invokes `fn` on every retained event, oldest first. Caller holds mu_.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (dropped_ == 0) {
      for (const auto& e : events_) fn(e);
      return;
    }
    const std::size_t n = events_.size();
    for (std::size_t i = 0; i < n; ++i) fn(events_[(ring_pos_ + i) % n]);
  }

  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::size_t max_events_ = 0;  ///< 0 = unbounded
  std::size_t ring_pos_ = 0;    ///< next overwrite slot once full
  std::uint64_t dropped_ = 0;
};

}  // namespace rails::trace
