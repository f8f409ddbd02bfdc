// The communication engine (NewMadeleine analogue).
//
// Three-layer architecture per Fig. 5, one module per layer's bookkeeping:
//  * application layer — isend()/irecv() enqueue requests into the pack list
//    (core/pack_list.hpp) and return immediately ("the application enqueues
//    packets into a list and immediately returns to computing");
//  * optimizer layer — a pluggable Strategy (core/strategy_iface.hpp,
//    core/strategies.hpp) interrogated when eager packets await emission,
//    when a NIC becomes idle, and when a rendezvous acknowledgement arrives;
//  * transfer layer — posts segments on the node's SimNics, charging the
//    submitting core for the PIO/setup host time; with reliability on, the
//    per-link sequence and window format is core/reliable_links.hpp and the
//    wire framing and checksum are core/wire_format.hpp.
// The Engine itself holds the protocol between them: eager emission, the
// rendezvous handshake, receive matching, failover and the reliability
// policy (timeouts, retransmits, giving up).
//
// One Engine instance runs per node of the virtual cluster; all instances
// share the fabric's event queue, so "waiting" for a request means running
// fabric events until the request completes (see World).
#pragma once

#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/message.hpp"
#include "core/pack_list.hpp"
#include "core/reliable_links.hpp"
#include "core/strategy_iface.hpp"
#include "core/wire_format.hpp"
#include "fabric/fabric.hpp"
#include "qos/arbiter.hpp"
#include "telemetry/counter_mirror.hpp"
#include "telemetry/engine_metrics.hpp"
#include "telemetry/prediction.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/tracer.hpp"

namespace rails::core {

/// The engine's counter table (docs/OBSERVABILITY.md, "Engine"). One row
/// per counter, X(EngineStats field, registry name): the row declares the
/// field, its EngineCounter id and the registry counter Engine::set_metrics
/// resolves for it, and Engine::count() bumps both. `<name>` stands for the
/// installed strategy's name.
#define RAILS_ENGINE_COUNTERS(X)                                               \
  X(sends, "engine.sends")                                                     \
  X(recvs, "engine.recvs")                                                     \
  X(eager_msgs, "engine.eager_msgs")                                           \
  X(rdv_msgs, "engine.rdv_msgs")                                               \
  X(progress_calls, "engine.progress_calls")   /* scheduler activations */    \
  X(plan_eager, "strategy.<name>.plan_eager")  /* per group visited */        \
  X(plan_rendezvous, "strategy.<name>.plan_rendezvous")                        \
  X(eager_segments, "engine.eager_segments")   /* eager segments posted */    \
  X(aggregated_packets, "engine.aggregated_packets") /* shared a segment */   \
  X(split_eager_msgs, "engine.split_eager_msgs") /* eager, split over rails */ \
  X(offloaded_chunks, "engine.offload_signals") /* emitted by a remote core */ \
  X(rdv_chunks, "engine.rdv_chunks")           /* DMA chunks, retries too */  \
  X(rdv_roundtrips, "engine.rdv_roundtrips")   /* RTS/CTS/FIN completed */    \
  X(stale_control, "engine.stale_control")     /* dup/unknown control segs */ \
  /* fault tolerance (docs/FAULTS.md) */                                       \
  X(tx_errors, "engine.tx_errors")             /* segments a NIC dropped */   \
  X(chunk_timeouts, "engine.chunk_timeouts")   /* past prediction + slack */  \
  X(failovers, "engine.failovers")             /* ranges re-split */          \
  X(retries, "engine.failover_retries")        /* segments re-posted */       \
  X(failover_exhausted, "engine.failover_exhausted")                           \
  X(quarantines, "engine.quarantines")                                         \
  X(reprobes, "engine.reprobes")                                               \
  X(reprobe_successes, "engine.reprobe_successes")                             \
  X(duplicate_chunks, "engine.duplicate_chunks") /* receiver-side dups */     \
  X(parse_rejects, "engine.parse_rejects") /* malformed frame dropped */      \
  /* end-to-end reliability (docs/FAULTS.md) */                                \
  X(rel_segments, "engine.reliability.segments") /* sequenced segs posted */  \
  X(rel_corruptions, "engine.reliability.corruptions")                         \
  X(rel_drops_inferred, "engine.reliability.drops_inferred")                   \
  X(rel_retransmits, "engine.reliability.retransmits")                         \
  X(rel_dup_suppressed, "engine.reliability.dup_suppressed")                   \
  X(rel_retry_exhausted, "engine.reliability.retry_exhausted")                 \
  X(rel_acks, "engine.reliability.acks")                                       \
  X(rel_nacks, "engine.reliability.nacks")                                     \
  /* recalibration (docs/CALIBRATION.md) */                                    \
  X(recal_corrections, "engine.recal.corrections")                             \
  X(recal_resamples, "engine.recal.resamples")                                 \
  X(trust_demotions, "engine.recal.demotions")                                 \
  X(trust_promotions, "engine.recal.promotions")                               \
  /* traffic-class QoS (docs/QOS.md); per-class rows live in the arbiter */    \
  X(qos_grants, "engine.qos.grants")           /* sends released */           \
  X(qos_stream_chunks, "engine.qos.stream_chunks") /* windowed bulk chunks */

/// Per-rail rows, X(EngineStats vector field, registry name); `<r>` is the
/// rail index. Both are bumped where every segment is posted, so they
/// count control segments and retransmissions too.
#define RAILS_ENGINE_RAIL_COUNTERS(X)                                          \
  X(payload_bytes_per_rail, "engine.rail<r>.payload_bytes")                    \
  X(segments_per_rail, "engine.rail<r>.segments")

struct EngineStats {
#define RAILS_STATS_FIELD(field, name) std::uint64_t field = 0;
  RAILS_ENGINE_COUNTERS(RAILS_STATS_FIELD)
#undef RAILS_STATS_FIELD
#define RAILS_STATS_FIELD(field, name) std::vector<std::uint64_t> field;
  RAILS_ENGINE_RAIL_COUNTERS(RAILS_STATS_FIELD)
#undef RAILS_STATS_FIELD
  // Always 0, no registry row; railbench still reads them (ROADMAP item 1 removes them).
  std::uint64_t strategy_cache_hits = 0;
  std::uint64_t strategy_cache_misses = 0;
};

/// Row ids of the counter tables, in table order.
enum class EngineCounter : std::size_t {
#define RAILS_COUNTER_ID(field, name) field,
  RAILS_ENGINE_COUNTERS(RAILS_COUNTER_ID)
  none,  ///< RAILS_ENGINE_EVENTS rows that bump no counter
};
enum class RailCounter : std::size_t { RAILS_ENGINE_RAIL_COUNTERS(RAILS_COUNTER_ID) };
#undef RAILS_COUNTER_ID

template <class Field>
struct CounterRow {
  Field EngineStats::*field;
  const char* name;  ///< registry name, placeholders unexpanded
};
#define RAILS_COUNTER_ROW(field, name) {&EngineStats::field, name},
inline constexpr CounterRow<std::uint64_t> kEngineCounters[] = {
    RAILS_ENGINE_COUNTERS(RAILS_COUNTER_ROW)};
inline constexpr CounterRow<std::vector<std::uint64_t>> kRailCounters[] = {
    RAILS_ENGINE_RAIL_COUNTERS(RAILS_COUNTER_ROW)};
#undef RAILS_COUNTER_ROW

/// The counter column of RAILS_ENGINE_EVENTS (trace/events.hpp), indexed by
/// trace::EventKind.
inline constexpr EngineCounter kEventCounters[] = {
#define RAILS_EVENT_COUNTER(kind, str, counter, sinks) EngineCounter::counter,
    RAILS_ENGINE_EVENTS(RAILS_EVENT_COUNTER)
#undef RAILS_EVENT_COUNTER
};

/// A row's registry name with `<name>` replaced by `strategy` and `<r>` by
/// `rail`. Empty when the row names a strategy and `strategy` is empty.
std::string counter_name(std::string_view pattern, std::string_view strategy,
                         RailId rail = 0);

class Engine {
 public:
  Engine(fabric::Fabric* fabric, NodeId self, const sampling::Estimator* estimator,
         EngineConfig config = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Installs the optimization strategy plug-in. Must be called before any
  /// traffic; may be swapped while the engine is quiescent.
  void set_strategy(std::unique_ptr<Strategy> strategy);
  Strategy& strategy();

  NodeId self() const { return self_; }
  const EngineConfig& config() const { return config_; }
  const sampling::Estimator& estimator() const { return *estimator_; }

  /// Message size at which sends switch to the rendezvous protocol.
  std::size_t rdv_threshold() const { return rdv_threshold_; }

  /// Per-send QoS attributes (docs/QOS.md). Inert without the subsystem.
  struct SendOptions {
    /// Traffic class; kAutoClass = classify by size.
    std::uint32_t traffic_class = qos::kAutoClass;
    /// Absolute completion deadline (virtual time); 0 = none. With QoS on,
    /// a deadline the estimator deems infeasible is rejected (handle state
    /// kRejected).
    SimTime deadline = 0;
  };

  /// Non-blocking send, with optional QoS attributes. The data buffer must
  /// stay alive until completion.
  SendHandle isend(NodeId dst, Tag tag, const void* data, std::size_t len,
                   const SendOptions& opts) {
    return submit_send(make_send_request(), dst, tag, data, len, opts, /*bounded=*/false);
  }
  SendHandle isend(NodeId dst, Tag tag, const void* data, std::size_t len) {
    return isend(dst, tag, data, len, SendOptions{});
  }

  /// Backpressured submit: returns nullptr (sheds load) when the resolved
  /// class's bounded queue is full. Identical to isend otherwise.
  SendHandle try_isend(NodeId dst, Tag tag, const void* data, std::size_t len,
                       const SendOptions& opts) {
    return submit_send(make_send_request(), dst, tag, data, len, opts, /*bounded=*/true);
  }
  SendHandle try_isend(NodeId dst, Tag tag, const void* data, std::size_t len) {
    return try_isend(dst, tag, data, len, SendOptions{});
  }

  /// The QoS arbiter; nullptr unless config().qos.enabled.
  qos::QosArbiter* qos() { return qos_.get(); }
  const qos::QosArbiter* qos() const { return qos_.get(); }

  /// Host memcpy bandwidth charged when an iovec send must be coalesced
  /// because some rail lacks gather/scatter support (MB/s).
  static constexpr double kHostCopyMbps = 2500.0;

  /// One piece of a gathered (iovec) send.
  struct IoSlice {
    const void* data = nullptr;
    std::size_t len = 0;
  };

  /// Non-blocking gathered send: the message is the concatenation of the
  /// slices. When every rail advertises gather/scatter (§II-B: "the
  /// availability of gather/scatter operations"), the NICs assemble the
  /// iovec for free; otherwise the engine coalesces into a staging buffer
  /// first, charging the scheduler core the memcpy time.
  SendHandle isendv(NodeId dst, Tag tag, std::span<const IoSlice> slices);

  /// Non-blocking receive from `src` with matching `tag`.
  RecvHandle irecv(NodeId src, Tag tag, void* data, std::size_t capacity);

  const EngineStats& stats() const { return stats_; }
  void reset_stats();

  /// Attaches an execution tracer (nullptr detaches). The tracer must
  /// outlive the engine or be detached first.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  /// Attaches the always-on flight recorder (nullptr detaches; same
  /// lifetime contract as set_tracer). Every event whose RAILS_ENGINE_EVENTS
  /// row names the flight recorder lands in its lock-free ring, and
  /// failover / quarantine / trust-demotion events trigger postmortem
  /// bundles. Also installs this engine as the recorder's state writer, so
  /// bundles carry the per-rail health/trust/scale view and the reliability
  /// config.
  void set_flight_recorder(trace::FlightRecorder* recorder);

  /// Writes one JSON object describing the engine's live control-plane
  /// state (per-rail quarantine/trust/scale, key config knobs) — embedded
  /// in postmortem bundles, also handy for diagnostics.
  void write_state_json(std::ostream& os) const;

  /// Attaches a metrics registry (nullptr detaches). Handles are resolved
  /// once here; afterwards the hot path touches only relaxed atomics, and a
  /// detached engine pays one check per site (same contract as set_tracer).
  /// The registry must outlive the engine or be detached. Its counters count
  /// from attach; stats() counts from construction or reset_stats().
  void set_metrics(telemetry::MetricsRegistry* registry);

  /// Attaches a predicted-vs-actual completion tracker (nullptr detaches).
  /// Records one sample per emission/chunk: the duration the estimator (or
  /// the split solver) promised against the fabric's actual NIC completion.
  void set_prediction_tracker(telemetry::PredictionTracker* tracker) {
    predictions_ = tracker;
  }

  /// Attaches the shared drift detector (nullptr detaches; same contract as
  /// set_tracer). Every emission/chunk completion is fed to it, and the
  /// engine arms background re-sampling sweeps when the detector asks.
  void set_recalibrator(sampling::Recalibrator* recal);

  /// Requests an immediate background re-sampling sweep of `rail`
  /// (railsctl --force-recal). No-op without an attached recalibrator.
  void force_recalibrate(RailId rail);

  /// Number of sends still sitting in the pack list (tests/diagnostics).
  std::size_t pending_sends() const { return pack_list_.size(); }

  /// True when `rail` is currently quarantined (excluded from strategy
  /// decisions until a re-probe finds the link up again).
  bool rail_quarantined(RailId rail) const { return rail_health_[rail].quarantined; }

  /// Sequenced segments posted but not yet acknowledged end-to-end (0 when
  /// the reliability layer is off or fully drained). Tests use this to
  /// assert that a soak leaves no retransmit state behind.
  std::uint64_t reliable_in_flight() const { return rel_links_.live(); }

  /// Health-plane sampler / SLO monitor (docs/OBSERVABILITY.md); nullptr
  /// unless config().timeseries.enabled (monitor also needs config().slos).
  telemetry::HealthSampler* health() { return health_.get(); }
  const telemetry::HealthSampler* health() const { return health_.get(); }
  telemetry::SloMonitor* slo_monitor() { return slo_.get(); }
  const telemetry::SloMonitor* slo_monitor() const { return slo_.get(); }
  /// QoS class names in ClassId order (empty when QoS is off) — the axis of
  /// the per-class series and the scorecard.
  std::vector<std::string> qos_class_names() const;

 private:
  using MsgKey = std::pair<NodeId, std::uint64_t>;  // (source node, msg id)

  /// A message that arrived before its receive was posted: eager bytes
  /// (possibly still partial), or a rendezvous request waiting for its CTS.
  struct Unexpected {
    bool rts = false;
    Tag tag = 0;
    std::size_t total = 0;
    std::size_t received = 0;            ///< eager only
    std::vector<std::uint8_t> buffer{};  ///< eager only
  };

  struct InboundRdv {
    RecvHandle recv;
    /// Disjoint byte ranges already landed ([start, end) keyed by start).
    /// Makes reception idempotent: a duplicate DATA chunk — the original
    /// arriving after a spurious-timeout retransmit — adds nothing.
    std::map<std::uint64_t, std::uint64_t> covered{};
  };

  /// Per-rail quarantine state (docs/FAULTS.md).
  struct RailHealth {
    bool quarantined = false;
    SimTime until = 0;       ///< quarantine lifts no earlier than this
    SimDuration window = 0;  ///< current backoff window (0 = config default)
  };

  StrategyContext make_context();
  /// The rails the strategy may use, as a per-rail mask: the usable ones,
  /// or every rail when all are quarantined, so traffic keeps flowing (and
  /// keeps probing).
  std::span<const std::uint8_t> strategy_rails() const;
  /// Shared isend/try_isend implementation on a fresh pooled `send`.
  /// `bounded` = refuse (nullptr) instead of enqueueing past the class queue
  /// capacity.
  SendHandle submit_send(SendHandle send, NodeId dst, Tag tag, const void* data,
                         std::size_t len, const SendOptions& opts, bool bounded);
  void on_segment(fabric::Segment&& seg);
  void handle_eager(const fabric::Segment& seg);
  void handle_rts(const fabric::Segment& seg);
  void handle_cts(const fabric::Segment& seg);
  void handle_data(const fabric::Segment& seg);
  void handle_fin(const fabric::Segment& seg);
  /// The rendezvous send `msg_id` when it is in `state`; otherwise counts a
  /// stale control segment and returns nullptr.
  SendHandle* rdv_send_in(std::uint64_t msg_id, SendState state);

  /// Interrogates the strategy for the queued eager sends, one destination
  /// group at a time in pack-list order, and posts the returned emissions.
  /// Stops at the first blocked plan. Re-armed at the next NIC-idle time
  /// while sends remain.
  void progress();
  /// Earliest time a rail the strategy can use goes idle (at least now + 1).
  SimTime next_rail_idle() const;
  void arm_progress(SimTime when);
  void post_emission(const EagerEmission& emission);
  /// Marks `send` done at `when`: the completion event, latency metric and
  /// QoS deadline bookkeeping. `rail` is the event's rail (eager only).
  void complete_send(SendRequest& send, SimTime when, RailId rail = 0);
  void start_rendezvous(const SendHandle& send);
  /// Registers the matched rendezvous `recv` as inbound and answers with CTS.
  void accept_rendezvous(const RecvHandle& recv);
  void stream_chunks(SendRequest& send);
  /// Posts one DATA chunk of `send` and tracks it for timeout: the single
  /// builder of a kData segment. `attempt` 0 is a first transmission (it
  /// advances bytes_posted); later attempts are failover re-posts. `plan` is
  /// the scheduler's promised duration (the solver's finish time); without
  /// one the estimator's busy-aware prediction stands in.
  void post_chunk(SendRequest& send, RailId rail, std::uint64_t offset, std::size_t bytes,
                  unsigned attempt, std::optional<SimDuration> plan = {});
  /// Posts a payload-free control segment (RTS/CTS/FIN/ACK/NACK) on the
  /// strategy's control rail and returns that rail.
  RailId post_control(fabric::Segment seg);
  /// Equal-finish split of `bytes` over `rails` with the rendezvous cost
  /// profiles and the live busy offsets (submit-path admission, failover).
  strategy::SplitResult equal_finish_split(std::span<const RailId> rails,
                                           std::size_t bytes) const;

  // -- traffic-class QoS (docs/QOS.md) -----------------------------------
  /// Earliest predicted completion of a `len`-byte send submitted now
  /// (eager: best usable rail; rendezvous: handshake + equal-finish
  /// makespan across usable rails, busy offsets included). Feeds deadline
  /// admission.
  SimTime earliest_feasible_completion(std::size_t len) const;
  /// Windowed rendezvous streaming: posts at most one kQosBulkChunk-sized
  /// chunk per idle usable rail per sweep, so strict classes grab rail
  /// slots between chunks, then re-arms at the next NIC-idle time.
  void pump_qos_streams();
  void arm_qos_pump();

  /// Posts one segment on `rail`; the submitting core is busy for the host
  /// share of the post. `extra_delay` models offload signalling (TO).
  fabric::SimNic::PostTimes post_segment(RailId rail, fabric::Segment seg,
                                         CoreId core, SimDuration extra_delay = 0);

  void deliver_fragment(const SubPacket& sp, const fabric::Segment& seg);
  /// Drops a malformed eager frame or fragment: emits parse-reject. Only
  /// reachable with reliability (and its wire checksum) off.
  void parse_reject(const fabric::Segment& seg, std::uint64_t msg_id);
  void complete_recv(const RecvHandle& recv);
  /// First posted receive matching (src, tag), removed from the FIFO.
  RecvHandle match_posted(NodeId src, Tag tag);
  /// Binds `recv` to message `msg_id` of `total` bytes from `src` with
  /// `tag` (wildcards resolved); aborts when the buffer is too small.
  void bind_recv(RecvRequest& recv, NodeId src, Tag tag, std::uint64_t msg_id,
                 std::size_t total);

  // -- fault tolerance ---------------------------------------------------
  bool rail_usable(RailId rail) const { return !rail_health_[rail].quarantined; }
  void on_tx_error(fabric::Segment&& seg);
  void on_tx_complete(const fabric::Segment& seg);
  /// Marks rendezvous send `msg_id` kFailed, first rescue-copying its buffer
  /// into the pin if DMA chunks still borrow it, and forgets it: its handshake,
  /// live chunks and QoS stream. No-op once the send completed or failed.
  void fail_rendezvous(std::uint64_t msg_id);
  /// Re-splits a lost byte range of rendezvous send `msg_id` across the
  /// surviving rails, unless the chunk already retired or was superseded.
  /// `timed_out` = its watchdog fired (reported, and the rail quarantined);
  /// otherwise the NIC reported the error.
  void failover_chunk(std::uint64_t msg_id, std::uint64_t offset, std::size_t bytes,
                      RailId failed_rail, unsigned attempt, bool timed_out);
  /// Registers a live chunk and arms its timeout event, in the one mode that
  /// reads them (reliability off). `dst` feeds the multi-hop flight
  /// allowance (Fabric::extra_path_latency).
  void track_chunk(std::uint64_t msg_id, NodeId dst, std::uint64_t offset,
                   std::size_t bytes, RailId rail, unsigned attempt,
                   SimTime decision_now, SimDuration predicted);
  void quarantine_rail(RailId rail);
  void schedule_reprobe(RailId rail);
  void reprobe_rail(RailId rail);

  // -- end-to-end reliability (docs/FAULTS.md) ---------------------------
  // The sequence and window format is ReliableLinks; this is the policy.
  // Loss is inferred by prediction-scaled ACK timeout (silent drops), NACK
  // (checksum failures), or NIC tx-error; recovery retransmits the parked
  // bytes — never touching the failover re-split, which would race it.

  /// Arms (or re-arms, with backoff) the ACK timeout for (dst, seq).
  void rel_arm(NodeId dst, std::uint64_t seq, SimDuration predicted_flight);
  /// Shared loss reaction: budget check, then retransmit the parked copy
  /// or give up. `count_streak` = an inferred silent loss (timeout), which
  /// feeds the per-rail loss streak; NACK/tx-error losses name their cause.
  void rel_presume_lost(RelTxEntry& entry, bool count_streak);
  void rel_exhaust(RelTxEntry& entry);

  /// Receiver gate: verify CRC, suppress duplicates, record the seq, arm
  /// the coalesced ACK. False = segment consumed (drop/dup/corrupt).
  bool rel_rx_accept(const fabric::Segment& seg);
  void rel_handle_ack(const fabric::Segment& seg);
  void rel_handle_nack(const fabric::Segment& seg);

  // -- recalibration -----------------------------------------------------
  /// Feeds one completed transfer into the tracker and the drift detector,
  /// turning the detector's verdict into stats/metrics/sweeps. `plan` is
  /// what the scheduler promised (tracker, timeouts); `model` is the raw
  /// estimator prediction — the drift detector must see the latter, because
  /// the plan bakes in the trust penalty of a SUSPECT rail and feeding that
  /// back would make the correction chase the penalty instead of the
  /// network.
  void observe_completion(RailId rail, SimDuration plan, SimDuration model,
                          SimDuration actual);
  /// True when some attached observer wants (predicted, actual) pairs.
  bool observing() const { return predictions_ != nullptr || recal_ != nullptr; }
  void schedule_resample(RailId rail);
  void run_resample(RailId rail);
  /// Best usable rail for re-posting a self-contained segment.
  RailId repost_rail(const fabric::Segment& seg) const;
  /// The usable rail `admit` accepts whose `done(state)` comes first (the
  /// lowest id on ties); nullopt when `admit` accepts none.
  template <class Admit, class Done>
  std::optional<RailId> best_usable_rail(Admit admit, Done done) const;

  // -- health plane (docs/OBSERVABILITY.md) ------------------------------
  /// One sampling tick: snapshot the curated metrics, evaluate the SLOs,
  /// escalate new-firing alerts into the flight recorder, and re-arm while
  /// the engine still has work in flight. The tick deliberately does NOT
  /// re-arm on an idle engine — a perpetual periodic event would keep
  /// run_all()/run_until() from ever terminating; submit/receive activity
  /// re-arms it instead.
  void health_tick();
  void arm_health();

  /// The one emission of an engine event (RAILS_ENGINE_EVENTS): bumps the
  /// row's counter, then, only while a sink is attached, records the event
  /// in the sinks the row names.
  void emit(const trace::Event& e) {
    const EngineCounter c = kEventCounters[static_cast<std::size_t>(e.kind)];
    if (c != EngineCounter::none) count(c);
    if (tracer_ != nullptr || flight_ != nullptr) record_event(e);
  }
  /// Stamps this node on `e`, records it in the attached sinks its row
  /// names, and refreshes the trace_dropped / flight_evictions gauges.
  void record_event(trace::Event e);
  /// Requests a postmortem bundle dump (no-op when detached/rate-limited)
  /// whose detail line is `fmt` printf-formatted with the arguments.
  void flight_trigger(const char* reason, const char* fmt, ...)
      __attribute__((format(printf, 3, 4)));

  fabric::Fabric* fabric_;
  NodeId self_;
  const sampling::Estimator* estimator_;
  EngineConfig config_;
  std::unique_ptr<Strategy> strategy_;
  std::vector<fabric::SimNic*> nics_;
  std::size_t rdv_threshold_ = 0;
  std::uint64_t next_msg_id_ = 1;
  bool retry_armed_ = false;

  std::vector<RailHealth> rail_health_;            ///< per-rail quarantine state
  mutable std::vector<std::uint8_t> rail_usable_;  ///< strategy_rails() scratch
  /// In-flight DMA chunks: msg id -> (offset -> retransmission attempt).
  /// Filled only with reliability off (the chunk timer's mode). Entries
  /// vanish on local tx-completion, error hand-off, or FIN — a timeout
  /// event that finds no entry (or a newer attempt) is stale.
  std::map<std::uint64_t, std::map<std::uint64_t, unsigned>> live_chunks_;

  std::map<std::uint64_t, SendHandle> rdv_sends_;  ///< RTS sent, keyed by msg id

  // -- end-to-end reliability (docs/FAULTS.md) ---------------------------
  ReliableLinks rel_links_;               ///< sized only with reliability on
  std::vector<unsigned> rel_loss_streak_; ///< consecutive inferred losses/rail

  // -- traffic-class QoS (docs/QOS.md) -----------------------------------
  std::unique_ptr<qos::QosArbiter> qos_;  ///< null when disabled
  /// One windowed bulk stream: CTS arrived, chunks fed kQosBulkChunk at a
  /// time. A stream with no bytes left, or whose send failed, is erased.
  struct QosStream {
    SendHandle send;
    std::uint64_t next_offset = 0;
  };
  std::map<std::uint64_t, QosStream> qos_streams_;  ///< keyed by msg id
  bool qos_pump_armed_ = false;
  std::vector<RecvHandle> posted_recvs_;           ///< unmatched, FIFO
  /// Matched multi-fragment eager receives. Flat + swap-erase: lookups are
  /// linear but the live set is small, and binding never allocates once the
  /// vector is warm (a std::map node did, every message).
  std::vector<std::pair<MsgKey, RecvHandle>> bound_recvs_;
  std::map<MsgKey, InboundRdv> inbound_rdv_;       ///< CTS sent, data flowing
  /// Early eager fragments and RTS in one store. Message ids grow in send
  /// order, so key order is each source's send order (non-overtaking).
  std::map<MsgKey, Unexpected> unexpected_;

  /// The one bump per counted event: the EngineStats field of the row, then
  /// the registry counter resolved from the same row (when attached).
  void count(EngineCounter c, std::uint64_t n = 1) {
    const auto row = static_cast<std::size_t>(c);
    stats_.*kEngineCounters[row].field += n;
    counters_.add(row, n);
  }
  void count(RailCounter c, RailId rail, std::uint64_t n) {
    const auto row = static_cast<std::size_t>(c);
    (stats_.*kRailCounters[row].field)[rail] += n;
    counters_.add(std::size(kEngineCounters) + row * nics_.size() + rail, n);
  }
  /// Resolves counters_ against the attached registry: one slot per scalar
  /// row, then one per (per-rail row, rail).
  void resolve_counters();

  EngineStats stats_;
  telemetry::CounterMirror counters_;
  trace::Tracer* tracer_ = nullptr;
  trace::FlightRecorder* flight_ = nullptr;

  // -- health plane (docs/OBSERVABILITY.md) ------------------------------
  std::unique_ptr<telemetry::HealthSampler> health_;  ///< null when disabled
  std::unique_ptr<telemetry::SloMonitor> slo_;        ///< null without slos
  bool health_armed_ = false;
  telemetry::EngineMetrics metrics_;
  telemetry::PredictionTracker* predictions_ = nullptr;
  sampling::Recalibrator* recal_ = nullptr;
  std::vector<double> trust_penalty_;      ///< per-rail penalties for contexts
  std::vector<std::uint8_t> resample_armed_;  ///< dedups sweep events per rail

  // -- hot-path scratch (docs/PERF.md) -----------------------------------
  // Persistent buffers recycled across activations so the steady-state
  // submit -> schedule -> emit path touches no allocator.

  PackList pack_list_;  ///< queued eager sends, in submission or grant order

  /// Rail sets of earliest_feasible_completion / failover_chunk and the
  /// solver inputs equal_finish_split builds from them (mutable: the
  /// submit-path callers are const).
  mutable std::vector<RailId> rail_scratch_;
  mutable std::vector<strategy::ProfileCost> cost_scratch_;
  mutable std::vector<strategy::SolverRail> solver_scratch_;

  std::vector<SubPacket> subpacket_scratch_;  ///< eager unpack scratch
};

}  // namespace rails::core
