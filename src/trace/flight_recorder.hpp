// Always-on flight recorder: a black box for the communication engine.
//
// The Tracer is an opt-in debugging aid; the FlightRecorder is the opposite
// contract — cheap enough to leave on in every run, so that when something
// goes wrong (rail failover, quarantine, trust demotion, CHECK failure)
// there is always a recent-history window to autopsy. It is a bounded
// lock-free ring of fixed-size structured records: producers (the scheduler
// core, offload workers, fault handlers) stamp records with a single
// fetch_add ticket plus per-field relaxed atomic stores guarded by a
// per-slot seqlock, so no producer ever blocks and a torn snapshot read is
// detected and discarded rather than returned.
//
// On a trigger event the recorder dumps a *postmortem bundle* — one JSON
// file holding the retained record window, a metrics-registry snapshot, and
// an engine-supplied state object (per-rail trust/scale, config) — which
// `railsctl postmortem <file>` renders for humans. Bundle writes are rate
// limited (count + minimum virtual-time spacing) so a flapping rail cannot
// fill a disk, and a CHECK-failure hook dumps one final bundle on the way
// to abort().
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "trace/events.hpp"

namespace rails::telemetry {
class MetricsRegistry;
}

namespace rails::trace {

/// One fixed-size flight record: the slot format of the ring, holding the
/// fields of an Event the recorder keeps. `a` and `b` are the kind's
/// operands (bytes, attempt counts, scaled gauges), so the record stays POD.
struct FlightRecord {
  SimTime time = 0;
  EventKind kind = EventKind::kSubmit;
  NodeId node = 0;
  RailId rail = 0;
  std::uint64_t msg_id = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;
};

class FlightRecorder {
 public:
  /// `capacity` is rounded up to a power of two; the ring keeps the most
  /// recent `capacity` records.
  explicit FlightRecorder(std::size_t capacity = 1024);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;
  ~FlightRecorder();

  /// Lock-free, wait-free on the fast path; safe from any thread. Every
  /// record, the recorder's own kTrigger included, is filled from an Event
  /// here.
  void record(const Event& e);

  std::size_t capacity() const { return mask_ + 1; }
  /// Records ever written (monotonic).
  std::uint64_t total_recorded() const {
    return head_.load(std::memory_order_acquire);
  }
  /// Records evicted by ring wrap-around (telemetry satellite: surfaced as
  /// the engine.flight_evictions gauge so bounded-buffer loss is visible).
  std::uint64_t evictions() const {
    const std::uint64_t n = total_recorded();
    return n > capacity() ? n - capacity() : 0;
  }
  /// Latest record timestamp seen (used to stamp check-failure bundles).
  SimTime last_time() const { return last_time_.load(std::memory_order_acquire); }

  /// Best-effort consistent copy of the retained window, oldest first.
  /// Records being overwritten concurrently are skipped, never torn.
  std::vector<FlightRecord> snapshot() const;

  // -- postmortem bundles ----------------------------------------------------

  /// Bundles are written to `<dir>/<prefix>-<seq>-<reason>.json`.
  void set_output(std::string dir, std::string prefix = "postmortem");
  /// Metrics snapshot embedded in each bundle (may be nullptr).
  void set_metrics(const telemetry::MetricsRegistry* registry);
  /// Engine-supplied state — the writer must emit ONE valid JSON object
  /// (per-rail trust/scale, reliability config, ...).
  using StateWriter = std::function<void(std::ostream&)>;
  void set_state_writer(StateWriter writer);
  /// Health-plane time series embedded under the bundle's "timeseries" key
  /// (docs/OBSERVABILITY.md): the writer must emit ONE valid JSON value —
  /// typically HealthSampler::write_json — so an SLO postmortem carries the
  /// offending series, not just the moment of the page. Unset = the key is
  /// omitted, keeping pre-health-plane bundles byte-identical.
  void set_series_writer(StateWriter writer);
  /// At most `max_bundles` bundles per process, spaced at least
  /// `min_interval` of virtual time apart (a flapping rail must not fill a
  /// disk). Defaults: 8 bundles, 0 spacing.
  void set_rate_limit(unsigned max_bundles, SimDuration min_interval);

  /// Dumps a bundle (unless rate-limited or no output dir is configured).
  /// Returns the bundle path, or "" when nothing was written. Also appends
  /// a kTrigger record to the ring either way.
  std::string trigger(const char* reason, const std::string& detail, SimTime now);

  unsigned bundles_written() const { return bundles_written_; }
  const std::string& last_bundle_path() const { return last_bundle_path_; }

  /// Serialises a bundle to `os` (the format `render_postmortem` parses).
  void write_bundle(std::ostream& os, const char* reason,
                    const std::string& detail, SimTime now) const;

  /// Arms the RAILS_CHECK failure hook: the next CHECK death writes one
  /// bundle (reason "check-failure") through this recorder before abort().
  /// Only one recorder can be armed at a time; destruction disarms.
  void install_check_hook();
  static void uninstall_check_hook();

  /// Parses a bundle produced by write_bundle and renders it for humans.
  /// Returns false (with a diagnostic on `os`) when `is` is not a bundle.
  static bool render_postmortem(std::istream& is, std::ostream& os);

 private:
  struct Slot;

  std::uint64_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<SimTime> last_time_{0};

  mutable std::mutex bundle_mu_;
  std::string dir_;
  std::string prefix_ = "postmortem";
  const telemetry::MetricsRegistry* metrics_ = nullptr;
  StateWriter state_writer_;
  StateWriter series_writer_;
  unsigned max_bundles_ = 8;
  SimDuration min_interval_ = 0;
  unsigned bundles_written_ = 0;
  SimTime last_bundle_time_ = kSimTimeNever;
  std::string last_bundle_path_;
};

}  // namespace rails::trace
