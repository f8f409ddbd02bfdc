#include "core/engine.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <ostream>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/stream_copy.hpp"
#include "fabric/buffer_pool.hpp"
#include "perf/profiler.hpp"

namespace rails::core {

using trace::EventKind;

Engine::Engine(fabric::Fabric* fabric, NodeId self, const sampling::Estimator* estimator,
               EngineConfig config)
    : fabric_(fabric), self_(self), estimator_(estimator), config_(config) {
  RAILS_CHECK(fabric_ != nullptr && estimator_ != nullptr);
  RAILS_CHECK_MSG(estimator_->rail_count() == fabric_->rail_count(),
                  "estimator and fabric disagree on the rail count");
  nics_.reserve(fabric_->rail_count());
  for (RailId r = 0; r < fabric_->rail_count(); ++r) nics_.push_back(&fabric_->nic(self_, r));
  rdv_threshold_ = config_.rdv_threshold_override != 0 ? config_.rdv_threshold_override
                                                       : estimator_->engine_rdv_threshold();
  if (config_.qos.enabled) {
    qos_ = std::make_unique<qos::QosArbiter>(config_.qos, rdv_threshold_);
  }
  reset_stats();
  if (config_.reliability.enabled) {
    rel_links_ = ReliableLinks(fabric_->node_count());
    rel_loss_streak_.assign(fabric_->rail_count(), 0);
  }
  pack_list_ = PackList(fabric_->node_count());
  rail_health_.assign(fabric_->rail_count(), RailHealth{});
  rail_usable_.assign(fabric_->rail_count(), 1);
  trust_penalty_.assign(fabric_->rail_count(), 1.0);
  resample_armed_.assign(fabric_->rail_count(), 0);
  if (config_.timeseries.enabled) {
    health_ = std::make_unique<telemetry::HealthSampler>();
    if (!config_.slos.empty()) {
      slo_ = std::make_unique<telemetry::SloMonitor>(config_.slos);
      slo_->bind(qos_class_names());
    }
  }
  fabric_->set_rx_handler(self_, [this](fabric::Segment&& seg) { on_segment(std::move(seg)); });
  // Completion-queue hooks on this node's own NICs: successful deliveries
  // retire live chunks, drops enter the failover path.
  for (fabric::SimNic* nic : nics_) {
    nic->set_tx_error([this](fabric::Segment&& seg) { on_tx_error(std::move(seg)); });
    nic->set_tx_complete([this](const fabric::Segment& seg) { on_tx_complete(seg); });
  }
}

void Engine::set_strategy(std::unique_ptr<Strategy> strategy) {
  RAILS_CHECK(strategy != nullptr);
  strategy_ = std::move(strategy);
  resolve_counters();  // the strategy.<name>.* rows follow the strategy
}

void Engine::set_metrics(telemetry::MetricsRegistry* registry) {
  metrics_.attach(registry, fabric_->rail_count());
  resolve_counters();
  if (qos_ != nullptr) qos_->attach_metrics(registry);
  if (health_ != nullptr) {
    health_->attach(registry, qos_class_names(), fabric_->rail_count());
  }
}

std::string counter_name(std::string_view pattern, std::string_view strategy, RailId rail) {
  std::string name(pattern);
  if (const auto at = name.find("<name>"); at != std::string::npos) {
    if (strategy.empty()) return {};
    name.replace(at, 6, strategy);
  }
  if (const auto at = name.find("<r>"); at != std::string::npos) {
    name.replace(at, 3, std::to_string(rail));
  }
  return name;
}

void Engine::resolve_counters() {
  const std::string strategy = strategy_ != nullptr ? strategy_->name() : std::string();
  const std::size_t scalar = std::size(kEngineCounters);
  const std::size_t rails = nics_.size();
  const auto name_of = [&](std::size_t slot) {
    if (slot < scalar) return counter_name(kEngineCounters[slot].name, strategy);
    slot -= scalar;
    return counter_name(kRailCounters[slot / rails].name, strategy,
                        static_cast<RailId>(slot % rails));
  };
  counters_.attach(metrics_.registry(), scalar + std::size(kRailCounters) * rails, name_of);
}

std::vector<std::string> Engine::qos_class_names() const {
  std::vector<std::string> names;
  if (qos_ != nullptr) {
    names.reserve(qos_->class_count());
    for (qos::ClassId c = 0; c < qos_->class_count(); ++c) {
      names.push_back(qos_->spec(c).name);
    }
  }
  return names;
}

void Engine::set_recalibrator(sampling::Recalibrator* recal) {
  if (recal != nullptr) {
    RAILS_CHECK_MSG(recal->rail_count() == nics_.size(),
                    "recalibrator and fabric disagree on the rail count");
  }
  recal_ = recal;
}

void Engine::set_flight_recorder(trace::FlightRecorder* recorder) {
  flight_ = recorder;
  if (flight_ != nullptr) {
    flight_->set_state_writer([this](std::ostream& os) { write_state_json(os); });
    if (health_ != nullptr) {
      // SLO postmortems carry the offending time series, not just the
      // moment of the page (docs/OBSERVABILITY.md).
      flight_->set_series_writer(
          [this](std::ostream& os) { health_->write_json(os); });
    }
  }
}

void Engine::write_state_json(std::ostream& os) const {
  os << "{\"node\":" << self_ << ",\"strategy\":\""
     << (strategy_ != nullptr ? strategy_->name() : "(none)") << '"'
     << ",\"rdv_threshold\":" << rdv_threshold_ << ",\"rails\":[";
  for (RailId r = 0; r < nics_.size(); ++r) {
    if (r != 0) os << ',';
    os << "{\"rail\":" << r << ",\"quarantined\":"
       << (rail_health_[r].quarantined ? "true" : "false");
    if (rail_health_[r].quarantined) {
      os << ",\"until_us\":" << to_usec(rail_health_[r].until);
    }
    if (recal_ != nullptr) {
      os << ",\"trust\":\"" << sampling::to_string(recal_->trust(r)) << '"'
         << ",\"scale\":" << recal_->scale(r)
         << ",\"drift\":" << recal_->drift_score(r);
    }
    os << '}';
  }
  os << "],\"config\":{\"reliability_enabled\":"
     << (config_.reliability.enabled ? "true" : "false")
     << ",\"reliable_in_flight\":" << rel_links_.live()
     << ",\"recal_attached\":" << (recal_ != nullptr ? "true" : "false") << "}}";
}

// -- health plane (docs/OBSERVABILITY.md) ------------------------------------

void Engine::arm_health() {
  if (health_ == nullptr || health_armed_) return;
  health_armed_ = true;
  fabric_->events().after(health_->interval(), [this] { health_tick(); });
}

void Engine::health_tick() {
  health_armed_ = false;
  if (health_ == nullptr) return;
  const SimTime now = fabric_->now();
  const auto& ticks = health_->sample(now);
  if (slo_ != nullptr) {
    for (const telemetry::AlertEvent& ev : slo_->observe(now, ticks)) {
      emit({.time = now, .kind = EventKind::kSloAlert, .a = ev.firing ? 1 : 0,
            .b = static_cast<std::int64_t>(ev.fast_value * 1000)});
      if (ev.firing) flight_trigger("slo-burn", "%s", ev.detail.c_str());
    }
  }
  // Re-arm only while work is in flight: one trailing tick captures the
  // final deltas after the engine drains, then the event chain ends so
  // run_all()/run_until() can terminate.
  if (!pack_list_.empty() || !rdv_sends_.empty() || !qos_streams_.empty() ||
      !inbound_rdv_.empty() || !unexpected_.empty() || rel_links_.live() > 0 ||
      (qos_ != nullptr && qos_->backlog())) {
    arm_health();
  }
}

void Engine::flight_trigger(const char* reason, const char* fmt, ...) {
  if (flight_ == nullptr) return;
  char detail[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(detail, sizeof(detail), fmt, args);
  va_end(args);
  flight_->trigger(reason, detail, fabric_->now());
}

void Engine::force_recalibrate(RailId rail) {
  if (recal_ == nullptr) return;
  RAILS_CHECK(rail < nics_.size());
  recal_->force_resample(rail);
  schedule_resample(rail);
}

void Engine::observe_completion(RailId rail, SimDuration plan, SimDuration model,
                                SimDuration actual) {
  if (predictions_ != nullptr) predictions_->record(rail, plan, actual);
  if (recal_ == nullptr) return;
  const SimTime now = fabric_->now();
  const auto out = recal_->observe(rail, model, actual, now);
  if (out.scale_corrected) {
    metrics_.on_profile_scale(rail, recal_->scale(rail));
    emit({.time = now, .kind = EventKind::kScaleCorrection, .rail = rail,
          .a = static_cast<std::int64_t>(recal_->scale(rail) * 1000.0)});
  }
  if (out.demoted) {
    emit({.time = now, .kind = EventKind::kTrustDemotion, .rail = rail,
          .a = static_cast<std::int64_t>(out.state)});
    flight_trigger("trust-demotion", "rail %u trust demoted to %s", rail,
                   sampling::to_string(out.state));
  }
  if (out.promoted) {
    emit({.time = now, .kind = EventKind::kTrustPromotion, .rail = rail,
          .a = static_cast<std::int64_t>(out.state)});
  }
  if (out.state_changed) metrics_.on_trust_gauge(rail, static_cast<int>(out.state));
  metrics_.on_drift_sample(rail, recal_->drift_score(rail));
  if (out.resample_requested) schedule_resample(rail);
}

void Engine::schedule_resample(RailId rail) {
  if (resample_armed_[rail] != 0) return;
  resample_armed_[rail] = 1;
  // The detector rate-limits sweeps; arm the event no earlier than the next
  // slot so a hot rail does not spin the queue.
  const SimTime when = std::max(fabric_->now(), recal_->earliest_resample(rail));
  fabric_->events().at(when, [this, rail] {
    resample_armed_[rail] = 0;
    run_resample(rail);
  });
}

void Engine::run_resample(RailId rail) {
  if (recal_ == nullptr) return;
  const SimTime now = fabric_->now();
  // Several engines share the detector; whoever gets here first (and passes
  // the budget/interval gate) runs the sweep, the rest find it not due.
  if (!recal_->resample_due(rail, now)) return;
  recal_->begin_resample(rail, now);
  // The probe burst is not free: charge the scheduler core.
  fabric_->cores(self_).occupy(config_.scheduler_core, now,
                               config_.recalibration.resample_host_cost);
  sampling::RailProfile fresh = sampling::resample_rail_via_preview(
      *nics_[rail], now, config_.recalibration.resample_sampler);
  recal_->complete_resample(rail, std::move(fresh), now);
  metrics_.on_profile_scale(rail, recal_->scale(rail));
  metrics_.on_trust_gauge(rail, static_cast<int>(recal_->trust(rail)));
  emit({.time = now, .kind = EventKind::kResample, .rail = rail,
        .a = static_cast<std::int64_t>(recal_->scale(rail) * 1000.0)});
}

Strategy& Engine::strategy() {
  RAILS_CHECK_MSG(strategy_ != nullptr, "no strategy installed");
  return *strategy_;
}

void Engine::record_event(trace::Event e) {
  e.node = self_;
  if (tracer_ != nullptr && trace::recorded_by(e.kind, trace::Sinks::kTracer)) {
    tracer_->record(e);
    metrics_.on_trace_dropped(tracer_->dropped());
  }
  if (flight_ != nullptr && trace::recorded_by(e.kind, trace::Sinks::kFlight)) {
    flight_->record(e);
    metrics_.on_flight_evictions(flight_->evictions());
  }
}

void Engine::reset_stats() {
  stats_ = EngineStats{};
  for (const auto& row : kRailCounters) {
    (stats_.*row.field).assign(fabric_->rail_count(), 0);
  }
}

StrategyContext Engine::make_context() {
  StrategyContext ctx;
  ctx.now = fabric_->now();
  ctx.estimator = estimator_;
  ctx.nics = std::span<fabric::SimNic* const>(nics_.data(), nics_.size());
  ctx.cores = &fabric_->cores(self_);
  ctx.config = &config_;
  ctx.usable = strategy_rails();  // quarantined rails are hidden from the strategy
  // Trust layer: SUSPECT rails carry a cost penalty; an UNTRUSTED (or
  // mid-resample) rail that is still usable compromises the solver's inputs
  // and pushes knowledge-based strategies to their iso fallback.
  if (recal_ != nullptr) {
    bool compromised = false;
    for (RailId r = 0; r < nics_.size(); ++r) {
      trust_penalty_[r] = recal_->cost_penalty(r);
      compromised = compromised || (rail_usable_[r] != 0 && recal_->compromised(r));
    }
    ctx.trust_penalty = std::span<const double>(trust_penalty_.data(), trust_penalty_.size());
    ctx.trust_compromised = compromised;
  }
  return ctx;
}

std::span<const std::uint8_t> Engine::strategy_rails() const {
  bool any_usable = false;
  for (RailId r = 0; r < nics_.size(); ++r) {
    rail_usable_[r] = rail_usable(r) ? 1 : 0;
    any_usable = any_usable || rail_usable_[r] != 0;
  }
  if (!any_usable) rail_usable_.assign(nics_.size(), 1);
  return rail_usable_;
}

SendHandle Engine::submit_send(SendHandle send, NodeId dst, Tag tag, const void* data,
                               std::size_t len, const SendOptions& opts, bool bounded) {
  RAILS_PERF_SCOPE(perf::Layer::kSubmit);
  RAILS_CHECK_MSG(dst != self_, "self-sends are not routed through the fabric");
  send->id = next_msg_id_++;
  send->dst = dst;
  send->tag = tag;
  send->data = static_cast<const std::uint8_t*>(data);
  send->len = len;
  send->submit_time = fabric_->now();

  if (qos_ != nullptr) {
    RAILS_PERF_SCOPE(perf::Layer::kClassify);
    send->qos_class = qos_->resolve(opts.traffic_class, len);
    // Deadline admission (docs/QOS.md): compare the estimator's earliest
    // feasible completion against the requested (or class-default) deadline
    // at submit time — an infeasible send is refused here instead of timing
    // out on the wire.
    SimTime deadline = opts.deadline;
    if (deadline == 0) {
      const SimDuration d = qos_->spec(send->qos_class).default_deadline;
      if (d > 0) deadline = send->submit_time + d;
    }
    if (deadline != 0 && earliest_feasible_completion(len) > deadline) {
      qos_->note_admission_reject(send->qos_class);
      send->state = SendState::kRejected;
      return send;
    }
    send->deadline = deadline;
    // try_send bound: shed load while the class queue is at capacity (only
    // eager sends occupy the queue; rendezvous is paced by its handshake
    // and the windowed streamer).
    if (bounded && len <= rdv_threshold_ && !qos_->has_capacity(send->qos_class)) {
      qos_->note_rejected_full(send->qos_class);
      return nullptr;
    }
  }

  emit({.time = send->submit_time, .kind = EventKind::kSubmit, .msg_id = send->id,
        .tag = tag, .a = static_cast<std::int64_t>(len), .cls = send->qos_class});
  arm_health();  // (re)start the health tick while traffic is in flight

  if (len > rdv_threshold_) {
    send->rendezvous = true;
    count(EngineCounter::rdv_msgs);
    start_rendezvous(send);
  } else {
    count(EngineCounter::eager_msgs);
    if (qos_ != nullptr) {
      qos_->enqueue(send->qos_class, send, send->submit_time);
    } else {
      pack_list_.push(send);
    }
    // The application returns immediately; the scheduler runs as a separate
    // activation at the same virtual instant. Deferring to an event lets a
    // burst of submissions issued back-to-back land in the pack list before
    // the strategy is interrogated — this is what makes aggregation see the
    // whole burst, exactly like NewMadeleine's pack list.
    arm_progress(fabric_->now());
  }
  return send;
}

SendHandle Engine::isendv(NodeId dst, Tag tag, std::span<const IoSlice> slices) {
  std::size_t total = 0;
  for (const IoSlice& s : slices) total += s.len;

  // With gather/scatter on every rail the NICs can walk the iovec during
  // injection; without it the message must be contiguous first, and that
  // memcpy costs real core time (charged before the send is even queued).
  bool all_gather = true;
  for (const auto* nic : nics_) {
    all_gather = all_gather && nic->model().params().gather_scatter;
  }

  // Staged in place: the pooled request's buffer keeps its capacity across
  // recycles, so a steady flow of same-sized iovec sends never allocates.
  SendHandle send = make_send_request();
  std::vector<std::uint8_t>& staging = send->staging;
  staging.reserve(total);
  for (const IoSlice& s : slices) {
    const auto* bytes = static_cast<const std::uint8_t*>(s.data);
    staging.insert(staging.end(), bytes, bytes + s.len);
  }
  if (!all_gather && total > 0) {
    fabric::SimCores& cores = fabric_->cores(self_);
    cores.occupy(config_.scheduler_core, fabric_->now(),
                 wire_time(total, kHostCopyMbps));
  }

  return submit_send(std::move(send), dst, tag, staging.data(), total, SendOptions{},
                     /*bounded=*/false);
}

RecvHandle Engine::irecv(NodeId src, Tag tag, void* data, std::size_t capacity) {
  RecvHandle recv = make_recv_request();
  recv->id = next_msg_id_++;
  recv->src = src;
  recv->tag = tag;
  recv->data = static_cast<std::uint8_t*>(data);
  recv->capacity = capacity;
  recv->post_time = fabric_->now();
  emit({.time = recv->post_time, .kind = EventKind::kRecvPosted, .msg_id = recv->id,
        .tag = tag, .a = static_cast<std::int64_t>(capacity)});

  // The oldest unexpected message that matches, eager or rendezvous: key
  // order is send order within each source.
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (src != kAnySource && it->first.first != src) continue;
    if (tag != kAnyTag && it->second.tag != tag) continue;
    Unexpected& u = it->second;
    bind_recv(*recv, it->first.first, u.tag, it->first.second, u.total);
    if (u.rts) {
      unexpected_.erase(it);
      accept_rendezvous(recv);
      return recv;
    }
    recv->bytes_received = u.received;
    if (u.received > 0) std::memcpy(recv->data, u.buffer.data(), u.buffer.size());
    const bool complete = u.received == u.total;
    if (complete) {
      unexpected_.erase(it);
      complete_recv(recv);
    } else {
      // Key by the *actual* source (recv->src is bound above) — `src` may
      // be the kAnySource wildcard.
      bound_recvs_.emplace_back(MsgKey{recv->src, recv->matched_msg}, recv);
      unexpected_.erase(it);
    }
    return recv;
  }

  posted_recvs_.push_back(recv);
  return recv;
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

void Engine::progress() {
  // Strategy layer: everything here except the arbiter drain and the
  // emission posts (which open their own scopes) is pack-list management
  // and strategy interrogation.
  RAILS_PERF_SCOPE(perf::Layer::kStrategy);
  // With QoS on, the pack list is fed by the arbiter: strict classes and
  // aged messages first, then one weighted-DRR round. Rounds are paced by
  // the NIC-idle re-arms below, which is what enforces the weight shares
  // under saturation.
  if (qos_ != nullptr) {
    RAILS_PERF_SCOPE(perf::Layer::kArbiter);
    qos_->grant(fabric_->now(), [this](SendHandle send) {
      count(EngineCounter::qos_grants);
      pack_list_.push(std::move(send));
    });
  }
  if (!pack_list_.empty()) {
    RAILS_CHECK_MSG(strategy_ != nullptr, "traffic submitted before a strategy was installed");
    count(EngineCounter::progress_calls);
    // Interrogate the strategy once per destination group, oldest group
    // first, until a plan reports that no later group could emit either. A
    // wake-up therefore costs the groups it can emit plus one, not the whole
    // pack list.
    pack_list_.plan_groups([this](std::span<const SendRequest* const> group) {
      const StrategyContext ctx = make_context();
      count(EngineCounter::plan_eager);
      const EagerSchedule schedule = strategy_->plan_eager(ctx, group);
      for (const EagerEmission& emission : schedule.emissions) post_emission(emission);
      return schedule.blocked;
    });
  }
  // Re-interrogate when the earliest NIC frees up ("the packet scheduler is
  // only activated when a NIC becomes idle in order to feed it").
  if (!pack_list_.empty() || (qos_ != nullptr && qos_->backlog())) {
    arm_progress(next_rail_idle());
  }
}

SimTime Engine::earliest_feasible_completion(std::size_t len) const {
  const SimTime now = fabric_->now();
  // The rails the strategy will be shown: every rail when all are
  // quarantined, so admission predicts what the planner may place.
  const std::span<const std::uint8_t> visible = strategy_rails();
  if (len <= rdv_threshold_) {
    // Eager: best busy-aware completion over the visible rails (eq. 1).
    SimTime best = kSimTimeNever;
    for (RailId r = 0; r < nics_.size(); ++r) {
      if (visible[r] == 0) continue;
      const sampling::RailState state{r, nics_[r]->busy_until()};
      best = std::min(best, estimator_->completion(state, now, len,
                                                   fabric::Protocol::kEager));
    }
    return best;
  }

  // Rendezvous: RTS/CTS round trip on the best rail plus the equal-finish
  // makespan of the payload across the visible rails, busy offsets included
  // (the same solver the failover path uses).
  std::vector<RailId>& usable = rail_scratch_;  // persistent submit-path scratch
  usable.clear();
  for (RailId r = 0; r < nics_.size(); ++r) {
    if (visible[r] != 0) usable.push_back(r);
  }
  const SimDuration makespan = equal_finish_split(usable, len).makespan;
  SimDuration handshake = kSimTimeNever;
  for (RailId r : usable) {
    const sampling::RailState state{r, nics_[r]->busy_until()};
    handshake = std::min(
        handshake,
        estimator_->completion(state, now, 0, fabric::Protocol::kEager) - now);
  }
  return now + 2 * handshake + makespan;
}

SimTime Engine::next_rail_idle() const {
  // Only rails the strategy sees wake it: an idle quarantined rail would
  // re-arm the scheduler every nanosecond until its re-probe, which re-arms
  // the scheduler itself when the quarantine lifts.
  SimTime when = kSimTimeNever;
  const std::span<const std::uint8_t> visible = strategy_rails();
  for (RailId r = 0; r < nics_.size(); ++r) {
    if (visible[r] != 0) when = std::min(when, nics_[r]->busy_until());
  }
  return std::max(when, fabric_->now() + 1);
}

void Engine::arm_progress(SimTime when) {
  if (retry_armed_) return;
  retry_armed_ = true;
  fabric_->events().at(when, [this] {
    retry_armed_ = false;
    progress();
  });
}

fabric::SimNic::PostTimes Engine::post_segment(RailId rail, fabric::Segment seg, CoreId core,
                                               SimDuration extra_delay) {
  fabric::SimCores& cores = fabric_->cores(self_);
  // ACK/NACK generation is a reliability offload: the NIC emits them from
  // firmware, so they neither wait for nor occupy a host core. Everything
  // else contends for the submitting core as usual.
  const bool control_lane = seg.kind == fabric::SegKind::kAck ||
                            seg.kind == fabric::SegKind::kNack;
  const SimTime earliest =
      control_lane ? fabric_->now() + extra_delay
                   : std::max(fabric_->now() + extra_delay, cores.busy_until(core));
  seg.src = self_;
  seg.rail = rail;
  const std::size_t payload = seg.payload.size();
  // Reliability choke point: every first-transmission segment (seq still 0)
  // except the ACK/NACK control plane gets sequenced, checksummed, and its
  // bytes parked (shared, not copied) before it touches the NIC.
  // Retransmissions carry their original seq and skip straight through.
  const bool sequenced = config_.reliability.enabled && seg.seq == 0 && !control_lane;
  NodeId rel_dst = 0;
  std::uint64_t rel_seq = 0;
  if (sequenced) {
    rel_links_.stash(seg, rail);
    count(EngineCounter::rel_segments);
    rel_dst = seg.dst;
    rel_seq = seg.seq;
  }
  const auto times = nics_[rail]->post(std::move(seg), earliest);
  if (!control_lane) {
    cores.occupy(core, times.host_start, times.host_end - times.host_start);
  }
  count(RailCounter::payload_bytes_per_rail, rail, payload);
  count(RailCounter::segments_per_rail, rail, 1);
  if (sequenced) {
    // deliver_at is the NIC model's single-hop arrival; on routed fabrics
    // the segment still has (hops - 1) links to cross before the receiver
    // can even generate the ACK, so budget that into the predicted flight.
    rel_arm(rel_dst, rel_seq,
            times.deliver_at - fabric_->now() +
                fabric_->extra_path_latency(self_, rel_dst, rail));
  }
  return times;
}

void Engine::post_emission(const EagerEmission& emission) {
  RAILS_PERF_SCOPE(perf::Layer::kEmit);
  RAILS_CHECK(!emission.pieces.empty());
  RAILS_CHECK(emission.rail < nics_.size());

  std::size_t framed = 0;
  for (const EagerPiece& piece : emission.pieces) framed += framed_size(piece.len);
  fabric::Segment seg;
  seg.payload = fabric::acquire_payload(framed);  // recycled on the receive side
  seg.kind = fabric::SegKind::kEager;
  seg.dst = emission.pieces.front().send->dst;
  seg.msg_id = emission.pieces.front().send->id;
  seg.tag = emission.pieces.front().send->tag;
  const Tag seg_tag = seg.tag;

  for (const EagerPiece& piece : emission.pieces) {
    RAILS_CHECK(piece.send != nullptr && piece.send->dst == seg.dst);
    RAILS_CHECK(piece.offset + piece.len <= piece.send->len);
    SubPacket sp;
    sp.msg_id = piece.send->id;
    sp.tag = piece.send->tag;
    sp.msg_total = piece.send->len;
    sp.offset = piece.offset;
    sp.bytes = piece.send->data != nullptr ? piece.send->data + piece.offset : nullptr;
    sp.len = static_cast<std::uint32_t>(piece.len);
    append_subpacket(seg.payload, sp);
  }
  RAILS_CHECK_MSG(seg.payload.size() <= nics_[emission.rail]->model().params().max_eager,
                  "eager emission exceeds the rail's segment cap");

  // Offloaded emissions start after the TO signalling delay on the remote
  // core; local emissions submit from the scheduler core immediately.
  CoreId core = config_.scheduler_core;
  SimDuration delay = 0;
  if (emission.offload_core) {
    core = *emission.offload_core;
    const bool idle = fabric_->cores(self_).idle(core, fabric_->now());
    delay = idle ? config_.offload.signal_cost : config_.offload.preempt_cost;
  }

  // Predict before posting: the post itself advances the NIC's busy-until.
  const SimTime decision_now = fabric_->now();
  const std::size_t framed_bytes = seg.payload.size();
  SimTime predicted_end = 0;
  if (observing()) {
    const sampling::RailState state{emission.rail, nics_[emission.rail]->busy_until()};
    predicted_end = estimator_->completion(state, decision_now + delay, framed_bytes,
                                           fabric::Protocol::kEager);
  }

  const auto times = post_segment(emission.rail, std::move(seg), core, delay);
  metrics_.on_eager_emit(framed_bytes);
  if (observing()) {
    const SimDuration predicted = predicted_end - decision_now;
    observe_completion(emission.rail, predicted, predicted, times.nic_end - decision_now);
  }
  if (emission.offload_core) {
    emit({.time = fabric_->now(), .kind = EventKind::kOffloadSignal,
          .msg_id = emission.pieces.front().send->id, .tag = seg_tag,
          .rail = emission.rail, .core = core,
          .cls = emission.pieces.front().send->qos_class});
  }
  for (const EagerPiece& piece : emission.pieces) {
    emit({.time = times.host_start, .kind = EventKind::kEagerEmit, .msg_id = piece.send->id,
          .tag = piece.send->tag, .rail = emission.rail, .core = core,
          .a = static_cast<std::int64_t>(piece.len), .b = times.nic_end,
          .cls = piece.send->qos_class});
  }

  count(EngineCounter::eager_segments);
  if (emission.pieces.size() > 1) {
    count(EngineCounter::aggregated_packets, emission.pieces.size());
  }

  // Account posted bytes and complete sends whose last piece this was.
  for (const EagerPiece& piece : emission.pieces) {
    auto* send = const_cast<SendRequest*>(piece.send);
    if (send->bytes_posted == 0) {
      metrics_.on_queueing(times.host_start - send->submit_time);
    }
    send->bytes_posted += piece.len;
    ++send->chunk_count;
    if (emission.offload_core) ++send->offloaded_chunks;
    if (send->bytes_posted == send->len) {
      if (send->chunk_count > 1) count(EngineCounter::split_eager_msgs);
      complete_send(*send, times.host_end, emission.rail);
    }
  }
}

void Engine::complete_send(SendRequest& send, SimTime when, RailId rail) {
  send.state = SendState::kDone;
  send.complete_time = when;
  emit({.time = when, .kind = EventKind::kSendComplete, .msg_id = send.id, .tag = send.tag,
        .rail = rail, .a = static_cast<std::int64_t>(send.len), .cls = send.qos_class});
  metrics_.on_send_complete(when - send.submit_time);
  if (qos_ == nullptr) return;
  const bool had_deadline = send.deadline != 0;
  qos_->note_completion(send.qos_class, had_deadline, had_deadline && when <= send.deadline,
                        when - send.submit_time);
}

void Engine::start_rendezvous(const SendHandle& send) {
  RAILS_PERF_SCOPE(perf::Layer::kEmit);
  const RailId rail = post_control({.kind = fabric::SegKind::kRts, .dst = send->dst,
                                    .msg_id = send->id, .tag = send->tag,
                                    .total_len = send->len});
  emit({.time = fabric_->now(), .kind = EventKind::kRtsSent, .msg_id = send->id,
        .tag = send->tag, .rail = rail, .a = static_cast<std::int64_t>(send->len),
        .cls = send->qos_class});
  send->state = SendState::kRtsSent;
  rdv_sends_[send->id] = send;
}

namespace {

/// Rendezvous streaming window with QoS on: a bulk transfer is fed to the
/// rails at most this many bytes per chunk, yielding rail slots to the
/// strict classes between chunks (docs/QOS.md).
constexpr std::size_t kQosBulkChunk = 256_KiB;

}  // namespace

SendHandle* Engine::rdv_send_in(std::uint64_t msg_id, SendState state) {
  const auto it = rdv_sends_.find(msg_id);
  if (it != rdv_sends_.end() && it->second->state == state) return &it->second;
  // A duplicated or straggling CTS or FIN: a wire dup with reliability off,
  // a failover re-accept, a second CTS after streaming began. Receives are
  // idempotent; the control plane must be too.
  count(EngineCounter::stale_control);
  return nullptr;
}

void Engine::handle_cts(const fabric::Segment& seg) {
  SendHandle* handle = rdv_send_in(seg.msg_id, SendState::kRtsSent);
  if (handle == nullptr) return;
  SendRequest& send = **handle;
  send.state = SendState::kStreaming;
  if (qos_ != nullptr && send.len > kQosBulkChunk) {
    // Windowed streaming (docs/QOS.md): instead of laying out the whole
    // message at once, hand the NICs one kQosBulkChunk per idle rail and come
    // back when one frees up. Between chunks the scheduler runs first, so
    // LATENCY-class sends preempt bulk transfers at chunk granularity.
    qos_streams_[send.id] = QosStream{*handle, 0};
    pump_qos_streams();
  } else {
    stream_chunks(send);
  }
}

template <class Admit, class Done>
std::optional<RailId> Engine::best_usable_rail(Admit admit, Done done) const {
  std::optional<RailId> best;
  SimTime best_done = kSimTimeNever;
  for (RailId r = 0; r < nics_.size(); ++r) {
    if (!rail_usable(r) || !admit(r)) continue;
    const SimTime t = done(sampling::RailState{r, nics_[r]->busy_until()});
    if (!best || t < best_done) {
      best = r;
      best_done = t;
    }
  }
  return best;
}

void Engine::pump_qos_streams() {
  // Latency preemption point: give the arbiter/strategy first claim on the
  // rails that just went idle before feeding them more bulk bytes.
  progress();
  const SimTime now = fabric_->now();
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = qos_streams_.begin(); it != qos_streams_.end();) {
      SendRequest& send = *it->second.send;
      // Best idle usable rail for the next chunk; busy rails wait for the
      // pump re-arm rather than queueing more bulk behind themselves.
      const std::optional<RailId> rail = best_usable_rail(
          [&](RailId r) { return nics_[r]->busy_until() <= now; },
          [&](const sampling::RailState& s) {
            return estimator_->chunk_completion(s, now, kQosBulkChunk);
          });
      if (!rail) {
        ++it;
        continue;
      }
      const std::size_t bytes =
          std::min<std::size_t>(kQosBulkChunk, send.len - it->second.next_offset);
      post_chunk(send, *rail, it->second.next_offset, bytes, /*attempt=*/0);
      count(EngineCounter::qos_stream_chunks);
      it->second.next_offset += bytes;
      progressed = true;
      if (it->second.next_offset >= send.len) {
        it = qos_streams_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (!qos_streams_.empty()) arm_qos_pump();
}

void Engine::arm_qos_pump() {
  if (qos_pump_armed_) return;
  qos_pump_armed_ = true;
  fabric_->events().at(next_rail_idle(), [this] {
    qos_pump_armed_ = false;
    pump_qos_streams();
  });
}

void Engine::stream_chunks(SendRequest& send) {
  RAILS_PERF_SCOPE(perf::Layer::kEmit);
  // "when a rendezvous request has just been received" — the strategy is
  // interrogated with the live NIC states to lay out the DMA chunks.
  const StrategyContext ctx = make_context();
  count(EngineCounter::plan_rendezvous);
  strategy::SplitResult split;
  {
    RAILS_PERF_SCOPE(perf::Layer::kStrategy);
    split = strategy_->plan_rendezvous(ctx, send.len);
  }
  RAILS_CHECK(!split.chunks.empty());

  std::size_t covered = 0;
  for (const strategy::Chunk& chunk : split.chunks) covered += chunk.bytes;
  RAILS_CHECK_MSG(covered == send.len, "rendezvous plan does not tile the message");

  for (std::size_t i = 0; i < split.chunks.size(); ++i) {
    const strategy::Chunk& chunk = split.chunks[i];
    // The solver's own per-chunk finish prediction when available (it saw
    // the ready offsets); otherwise the estimator's busy-aware fallback.
    post_chunk(send, chunk.rail, chunk.offset, chunk.bytes, /*attempt=*/0,
               i < split.finish_times.size() ? std::optional(split.finish_times[i])
                                             : std::nullopt);
  }
}

void Engine::post_chunk(SendRequest& send, RailId rail, std::uint64_t offset,
                        std::size_t bytes, unsigned attempt,
                        std::optional<SimDuration> plan) {
  RAILS_PERF_SCOPE(perf::Layer::kEmit);
  // Predict before posting: the post itself advances the NIC's busy-until.
  // `model` is the raw estimator view (what the drift detector compares
  // against the fabric); `predicted` is the plan, identical unless the
  // solver carried a trust penalty or saw later ready offsets. Besides
  // feeding the PredictionTracker, `predicted` is what the chunk timeout is
  // derived from (predicted completion times the slack factor).
  const SimTime now = fabric_->now();
  const sampling::RailState state{rail, nics_[rail]->busy_until()};
  const SimDuration model = estimator_->chunk_completion(state, now, bytes) - now;
  const SimDuration predicted = plan.value_or(model);

  fabric::Segment data{.kind = fabric::SegKind::kData, .dst = send.dst, .msg_id = send.id,
                       .tag = send.tag, .offset = offset, .total_len = send.len,
                       .attempt = static_cast<std::uint8_t>(attempt)};
  // DMA reads the application buffer in place (docs/PROTOCOL.md "Send-buffer
  // contract"): the chunk, and with reliability on its parked retransmit
  // entry, borrow it through the send's pin until handle_fin ends the loan.
  if (send.pin == nullptr) send.pin = fabric::PinPool::instance().lend(send.data);
  data.payload = fabric::Payload::borrow(send.pin, offset, bytes);
  const auto times = post_segment(rail, std::move(data), config_.scheduler_core);
  emit({.time = times.host_start, .kind = EventKind::kChunkPosted, .msg_id = send.id,
        .tag = send.tag, .rail = rail, .core = config_.scheduler_core,
        .a = static_cast<std::int64_t>(bytes), .b = times.nic_end, .cls = send.qos_class});
  metrics_.on_chunk_posted(bytes);
  if (attempt == 0) {
    if (send.chunk_count == 0) metrics_.on_queueing(times.host_start - send.submit_time);
    send.bytes_posted += bytes;
  } else {
    // Retransmissions do not advance bytes_posted: it tracks distinct
    // message bytes handed to the NICs, and these bytes were already counted.
    count(EngineCounter::retries);
  }
  ++send.chunk_count;
  observe_completion(rail, predicted, model, times.nic_end - now);
  track_chunk(send.id, send.dst, offset, bytes, rail, attempt, now, predicted);
}

void Engine::handle_fin(const fabric::Segment& seg) {
  RAILS_PERF_SCOPE(perf::Layer::kCompletion);
  SendHandle* handle = rdv_send_in(seg.msg_id, SendState::kStreaming);
  if (handle == nullptr) return;
  SendRequest& send = **handle;
  live_chunks_.erase(seg.msg_id);  // any armed timeouts are stale now
  qos_streams_.erase(seg.msg_id);  // a failover retransmit may finish early
  // The receiver has every byte, so the buffer goes back to the application
  // now. Without reliability, chunks still in flight are duplicates the
  // receiver drops unread. With it, a DATA entry whose ACK is still out may
  // be retransmitted, and a post-FIN duplicate is checksummed before the
  // window drops it: the parked entries take their own bytes, and
  // rescue_pin copies the message only for a view still on the wire.
  if (send.pin != nullptr) {
    if (config_.reliability.enabled) {
      rel_links_.own_parked_data(send.dst, send.id);
      fabric::rescue_pin(send.pin, send.len);
    } else {
      fabric::revoke_pin(send.pin);
    }
  }
  count(EngineCounter::rdv_roundtrips);
  complete_send(send, fabric_->now());
  rdv_sends_.erase(seg.msg_id);
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

void Engine::on_segment(fabric::Segment&& seg) {
  arm_health();  // a pure receiver samples too while traffic flows
  // Reliability gate: verify the checksum, suppress duplicates, record the
  // sequence, and schedule the coalesced ACK — before any handler sees the
  // segment. A rejected segment (corrupt or duplicate) dies here.
  if (config_.reliability.enabled && seg.seq != 0 &&
      seg.kind != fabric::SegKind::kAck && seg.kind != fabric::SegKind::kNack &&
      !rel_rx_accept(seg)) {
    fabric::recycle_payload(std::move(seg.payload));
    return;
  }
  switch (seg.kind) {
    case fabric::SegKind::kEager: handle_eager(seg); break;
    case fabric::SegKind::kRts: handle_rts(seg); break;
    case fabric::SegKind::kCts: handle_cts(seg); break;
    case fabric::SegKind::kData: handle_data(seg); break;
    case fabric::SegKind::kFin: handle_fin(seg); break;
    case fabric::SegKind::kAck: rel_handle_ack(seg); break;
    case fabric::SegKind::kNack: rel_handle_nack(seg); break;
  }
  // The segment dies here; its payload buffer goes back to the pool the
  // sender-side post paths draw from (handlers only read the payload).
  fabric::recycle_payload(std::move(seg.payload));
}

namespace {

bool recv_matches(const RecvRequest& recv, NodeId src, Tag tag) {
  const bool src_ok = recv.src == kAnySource || recv.src == src;
  const bool tag_ok = recv.tag == kAnyTag || recv.tag == tag;
  return src_ok && tag_ok;
}

}  // namespace

RecvHandle Engine::match_posted(NodeId src, Tag tag) {
  // FIFO across all posted receives; wildcards match like MPI's.
  for (auto it = posted_recvs_.begin(); it != posted_recvs_.end(); ++it) {
    if (recv_matches(**it, src, tag)) {
      RecvHandle recv = *it;
      posted_recvs_.erase(it);
      return recv;
    }
  }
  return nullptr;
}

void Engine::handle_eager(const fabric::Segment& seg) {
  RAILS_PERF_SCOPE(perf::Layer::kEmit);  // unpack mirrors pack
  // Scratch parse: segments are delivered one at a time off the event queue
  // and deliver_fragment never re-enters the unpack path, so one buffer is
  // enough and the steady receive path stays allocation-free. The parse is
  // the non-aborting variant: with reliability (and its wire checksum) off,
  // a corrupted payload bit can land inside a sub-packet header, and a
  // single wire fault must not take down the node.
  if (!try_parse_subpackets(seg.payload, subpacket_scratch_)) {
    parse_reject(seg, seg.msg_id);
    return;
  }
  for (const SubPacket& sp : subpacket_scratch_) deliver_fragment(sp, seg);
}

void Engine::parse_reject(const fabric::Segment& seg, std::uint64_t msg_id) {
  emit({.time = fabric_->now(), .kind = EventKind::kParseReject, .msg_id = msg_id,
        .rail = seg.rail, .a = seg.src});
}

void Engine::deliver_fragment(const SubPacket& sp, const fabric::Segment& seg) {
  // Every engine of a world shares the rendezvous threshold, so an eager
  // fragment of a larger message is a corrupted header (reliability off).
  // Binding it would trip the posted-capacity check or allocate its claim.
  if (sp.msg_total > rdv_threshold_) {
    parse_reject(seg, sp.msg_id);
    return;
  }
  const NodeId src = seg.src;
  const MsgKey key{src, sp.msg_id};

  // Fragment of an already-bound receive?
  const auto it = std::find_if(bound_recvs_.begin(), bound_recvs_.end(),
                               [&key](const auto& e) { return e.first == key; });
  if (it != bound_recvs_.end()) {
    RecvHandle recv = it->second;
    if (sp.offset + sp.len > recv->expected) {
      // Only reachable via payload corruption with reliability off: a
      // flipped bit inside the sub-packet header moved the fragment out of
      // bounds. Dropping beats scribbling past the receive buffer.
      parse_reject(seg, sp.msg_id);
      return;
    }
    if (sp.len > 0) std::memcpy(recv->data + sp.offset, sp.bytes, sp.len);
    recv->bytes_received += sp.len;
    if (recv->bytes_received == recv->expected) {
      if (&*it != &bound_recvs_.back()) *it = std::move(bound_recvs_.back());
      bound_recvs_.pop_back();
      complete_recv(recv);
    }
    return;
  }

  // First fragment of a new message: try to bind a posted receive.
  if (RecvHandle recv = match_posted(src, sp.tag)) {
    bind_recv(*recv, src, sp.tag, sp.msg_id, sp.msg_total);
    if (sp.len > 0) std::memcpy(recv->data + sp.offset, sp.bytes, sp.len);
    recv->bytes_received = sp.len;
    if (recv->bytes_received == recv->expected) {
      complete_recv(recv);
    } else {
      bound_recvs_.emplace_back(key, recv);
    }
    return;
  }

  // Unexpected: buffer until a matching receive is posted.
  Unexpected& u = unexpected_[key];
  if (u.buffer.empty() && u.total == 0) {
    u.tag = sp.tag;
    u.total = sp.msg_total;
    u.buffer.assign(sp.msg_total, 0);
  }
  if (u.rts || sp.offset + sp.len > u.total) {
    parse_reject(seg, sp.msg_id);  // corrupted header, reliability off (see above)
    return;
  }
  if (sp.len > 0) std::memcpy(u.buffer.data() + sp.offset, sp.bytes, sp.len);
  u.received += sp.len;
}

void Engine::handle_rts(const fabric::Segment& seg) {
  // Duplicate RTS (wire dup, or sender retry racing the original): the
  // handshake is already in flight or already queued — matching it again
  // would bind a second receive to the same message.
  const MsgKey key{seg.src, seg.msg_id};
  if (inbound_rdv_.count(key) != 0 || unexpected_.count(key) != 0) {
    count(EngineCounter::stale_control);
    return;
  }
  if (RecvHandle recv = match_posted(seg.src, seg.tag)) {
    bind_recv(*recv, seg.src, seg.tag, seg.msg_id, seg.total_len);
    accept_rendezvous(recv);
    return;
  }
  unexpected_.emplace(key, Unexpected{.rts = true, .tag = seg.tag, .total = seg.total_len});
}

void Engine::bind_recv(RecvRequest& recv, NodeId src, Tag tag, std::uint64_t msg_id,
                       std::size_t total) {
  RAILS_CHECK_MSG(total <= recv.capacity, "posted receive buffer too small");
  recv.state = RecvState::kMatched;
  recv.src = src;  // binds the kAnySource / kAnyTag wildcards
  recv.tag = tag;
  recv.matched_msg = msg_id;
  recv.expected = total;
}

void Engine::accept_rendezvous(const RecvHandle& recv) {
  inbound_rdv_[{recv->src, recv->matched_msg}] = InboundRdv{recv};
  const RailId rail = post_control(
      {.kind = fabric::SegKind::kCts, .dst = recv->src, .msg_id = recv->matched_msg});
  emit({.time = fabric_->now(), .kind = EventKind::kCtsSent, .msg_id = recv->matched_msg,
        .rail = rail});
}

RailId Engine::post_control(fabric::Segment seg) {
  const RailId rail = strategy_ != nullptr ? strategy_->control_rail(make_context()) : 0;
  post_segment(rail, std::move(seg), config_.scheduler_core);
  return rail;
}

namespace {

/// Merges [lo, hi) into a disjoint interval set (start -> end, keyed by
/// start) and returns the number of bytes not previously covered.
std::size_t add_interval(std::map<std::uint64_t, std::uint64_t>& set, std::uint64_t lo,
                         std::uint64_t hi) {
  if (hi <= lo) return 0;
  auto it = set.lower_bound(lo);
  if (it != set.begin() && std::prev(it)->second >= lo) it = std::prev(it);
  std::size_t fresh = 0;
  std::uint64_t cursor = lo;
  std::uint64_t merged_lo = lo;
  std::uint64_t merged_hi = hi;
  while (it != set.end() && it->first <= hi) {
    if (it->first > cursor) fresh += it->first - cursor;
    cursor = std::max(cursor, it->second);
    merged_lo = std::min(merged_lo, it->first);
    merged_hi = std::max(merged_hi, it->second);
    it = set.erase(it);
  }
  if (cursor < hi) fresh += hi - cursor;
  set[merged_lo] = merged_hi;
  return fresh;
}

}  // namespace

void Engine::handle_data(const fabric::Segment& seg) {
  RAILS_PERF_SCOPE(perf::Layer::kEmit);  // chunk reassembly mirrors packing
  auto it = inbound_rdv_.find({seg.src, seg.msg_id});
  if (it == inbound_rdv_.end()) {
    // Duplicate after completion: a spurious-timeout retransmit finished the
    // message and the straggling original arrived late. Reception is
    // idempotent — drop it.
    count(EngineCounter::duplicate_chunks);
    return;
  }
  RecvHandle recv = it->second.recv;
  RAILS_CHECK(seg.offset + seg.payload.size() <= recv->expected);
  if (!seg.payload.empty()) {
    // The modelled DMA write: a receive buffer too large to stay in L2 is
    // written past the cache instead of paying a read-for-ownership per
    // line, by several host cores when the chunk is large; a smaller one
    // may be warm, and memcpy wins there.
    RAILS_PERF_SCOPE(perf::Layer::kPlace);
    if (recv->expected >= kStreamCopyThreshold) {
      stream_copy_split(recv->data + seg.offset, seg.payload.data(), seg.payload.size());
    } else {
      std::memcpy(recv->data + seg.offset, seg.payload.data(), seg.payload.size());
    }
  }
  const std::size_t fresh =
      add_interval(it->second.covered, seg.offset, seg.offset + seg.payload.size());
  if (fresh < seg.payload.size()) {
    count(EngineCounter::duplicate_chunks);
  }
  recv->bytes_received += fresh;
  if (recv->bytes_received == recv->expected) {
    inbound_rdv_.erase(it);
    post_control({.kind = fabric::SegKind::kFin, .dst = recv->src, .msg_id = seg.msg_id});
    complete_recv(recv);
  }
}

void Engine::complete_recv(const RecvHandle& recv) {
  RAILS_PERF_SCOPE(perf::Layer::kCompletion);
  recv->state = RecvState::kDone;
  recv->complete_time = fabric_->now();
  emit({.time = recv->complete_time, .kind = EventKind::kRecvComplete, .msg_id = recv->id,
        .tag = recv->tag, .a = static_cast<std::int64_t>(recv->bytes_received)});
  metrics_.on_recv_complete(recv->complete_time - recv->post_time);
}

// ---------------------------------------------------------------------------
// Fault tolerance: timeouts, retry/failover, quarantine (docs/FAULTS.md)
// ---------------------------------------------------------------------------

namespace {

/// A DMA chunk is declared lost when it exceeds this many times its
/// estimator-predicted completion, floored at kMinChunkTimeout.
constexpr double kChunkTimeoutSlack = 4.0;
constexpr SimDuration kMinChunkTimeout = 50_us;
/// Post attempts per byte range or segment (original + retries) before the
/// send is marked failed.
constexpr unsigned kMaxPostAttempts = 4;
/// Initial quarantine window after an error or timeout; each unsuccessful
/// re-probe multiplies it by kQuarantineBackoff, up to kMaxQuarantine.
constexpr SimDuration kQuarantine = 2_ms;
constexpr double kQuarantineBackoff = 2.0;
constexpr SimDuration kMaxQuarantine = 50_ms;

}  // namespace

void Engine::on_tx_complete(const fabric::Segment& seg) {
  if (seg.kind != fabric::SegKind::kData) return;
  auto it = live_chunks_.find(seg.msg_id);
  if (it == live_chunks_.end()) return;
  // The bytes landed (whatever the attempt — a straggling older attempt
  // covers at least this range); any armed timeout for this offset is moot.
  it->second.erase(seg.offset);
}

void Engine::on_tx_error(fabric::Segment&& seg) {
  emit({.time = fabric_->now(), .kind = EventKind::kTxError, .msg_id = seg.msg_id,
        .rail = seg.rail, .a = static_cast<std::int64_t>(seg.payload.size()),
        .b = seg.attempt});
  quarantine_rail(seg.rail);  // a hard CQ error is a sick rail
  if (config_.reliability.enabled && seg.seq != 0) {
    // The reliability layer owns recovery for sequenced segments: the parked
    // bytes are retransmitted immediately (budget-checked) instead of routing
    // through the failover re-split, which would race the retransmit to the
    // same bytes.
    if (RelTxEntry* entry = rel_links_.find(seg.dst, seg.seq)) {
      rel_presume_lost(*entry, /*count_streak=*/false);
    }
    return;
  }
  if (seg.kind == fabric::SegKind::kData) {
    failover_chunk(seg.msg_id, seg.offset, seg.payload.size(), seg.rail, seg.attempt,
                   /*timed_out=*/false);
    return;
  }

  // Eager and control segments are self-contained: re-post the whole
  // segment on the best usable rail.
  if (seg.attempt + 1u >= kMaxPostAttempts) {
    count(EngineCounter::failover_exhausted);
    // The handshake can never finish; fail the send instead of hanging.
    if (seg.kind == fabric::SegKind::kRts) fail_rendezvous(seg.msg_id);
    return;
  }
  const RailId rail = repost_rail(seg);
  ++seg.attempt;
  count(EngineCounter::retries);
  post_segment(rail, std::move(seg), config_.scheduler_core);
}

RailId Engine::repost_rail(const fabric::Segment& seg) const {
  // Best usable rail that can carry the payload, by predicted completion;
  // fall back to any other rail, then to the original.
  const std::size_t size = seg.payload.size();
  const std::optional<RailId> best = best_usable_rail(
      [&](RailId r) {
        return seg.kind != fabric::SegKind::kEager ||
               size <= nics_[r]->model().params().max_eager;
      },
      [&](const sampling::RailState& s) {
        return estimator_->completion(s, fabric_->now(), size, fabric::Protocol::kEager);
      });
  if (best) return *best;
  for (RailId r = 0; r < nics_.size(); ++r) {
    if (r != seg.rail) return r;
  }
  return seg.rail;
}

void Engine::track_chunk(std::uint64_t msg_id, NodeId dst, std::uint64_t offset,
                         std::size_t bytes, RailId rail, unsigned attempt,
                         SimTime decision_now, SimDuration predicted) {
  // With end-to-end reliability on, the ACK timeout owns loss detection for
  // every sequenced segment — arming the chunk timer too would race two
  // recovery paths to the same byte range. The timer is the only reader of
  // live_chunks_, so no other mode records the chunk.
  if (config_.reliability.enabled) return;
  live_chunks_[msg_id][offset] = attempt;
  // Timeout = predicted completion times the slack factor, floored so tiny
  // chunks are not declared lost by rounding. On a healthy fabric the chunk
  // retires (tx-complete) long before this event fires, making it a no-op.
  // Routed fabrics add the (hops - 1) link latencies the estimator's
  // single-hop view cannot see — without the allowance every long route
  // would read as a loss and trigger spurious failovers.
  const SimDuration flight =
      predicted + fabric_->extra_path_latency(self_, dst, rail);
  const auto slack =
      static_cast<SimDuration>(kChunkTimeoutSlack * static_cast<double>(flight));
  const SimTime deadline = decision_now + std::max(kMinChunkTimeout, slack);
  fabric_->events().at(deadline, [this, msg_id, offset, bytes, rail, attempt] {
    failover_chunk(msg_id, offset, bytes, rail, attempt, /*timed_out=*/true);
  });
}

void Engine::fail_rendezvous(std::uint64_t msg_id) {
  const auto it = rdv_sends_.find(msg_id);
  if (it == rdv_sends_.end()) return;
  SendRequest& send = *it->second;
  // The application may reuse its buffer once the send is terminal, but
  // chunks still in flight may yet be the receiver's only copy of their
  // bytes: rescue-copy them into the pin first.
  if (send.pin != nullptr) fabric::rescue_pin(send.pin, send.len);
  send.state = SendState::kFailed;
  live_chunks_.erase(msg_id);
  qos_streams_.erase(msg_id);
  rdv_sends_.erase(it);
}

void Engine::failover_chunk(std::uint64_t msg_id, std::uint64_t offset, std::size_t bytes,
                            RailId failed_rail, unsigned attempt, bool timed_out) {
  const auto it = rdv_sends_.find(msg_id);
  if (it == rdv_sends_.end()) return;  // send completed or already failed
  const auto lc = live_chunks_.find(msg_id);
  if (lc == live_chunks_.end()) return;
  const auto entry = lc->second.find(offset);
  if (entry == lc->second.end() || entry->second != attempt) return;  // retired/superseded
  if (timed_out) {
    emit({.time = fabric_->now(), .kind = EventKind::kChunkTimeout, .msg_id = msg_id,
          .rail = failed_rail, .a = static_cast<std::int64_t>(bytes), .b = attempt});
    quarantine_rail(failed_rail);
  }
  lc->second.erase(entry);
  SendRequest& send = *it->second;
  if (bytes == 0) return;

  emit({.time = fabric_->now(), .kind = EventKind::kFailover, .msg_id = send.id,
        .tag = send.tag, .rail = failed_rail, .core = config_.scheduler_core,
        .a = static_cast<std::int64_t>(bytes)});
  flight_trigger("failover",
                 "msg %llu: %zu B at offset %llu re-split off rail %u (attempt %u)",
                 static_cast<unsigned long long>(send.id), bytes,
                 static_cast<unsigned long long>(offset), failed_rail, attempt);

  if (attempt + 1u >= kMaxPostAttempts) {
    count(EngineCounter::failover_exhausted);
    fail_rendezvous(send.id);
    return;
  }

  // Surviving rails. All-quarantined is not a reason to give up — retrying
  // somewhere is strictly better than dropping the message, and the retry
  // doubles as a probe.
  std::vector<RailId>& survivors = rail_scratch_;  // shared with the submit path
  survivors.clear();
  for (RailId r = 0; r < nics_.size(); ++r) {
    if (r != failed_rail && rail_usable(r)) survivors.push_back(r);
  }
  if (survivors.empty()) {
    for (RailId r = 0; r < nics_.size(); ++r) {
      if (r != failed_rail) survivors.push_back(r);
    }
  }
  if (survivors.empty()) survivors.push_back(failed_rail);  // single-rail fabric

  // Re-split the lost byte range across the survivors with the equal-finish
  // solver, live busy offsets included (one survivor -> one chunk).
  for (const strategy::Chunk& c : equal_finish_split(survivors, bytes).chunks) {
    post_chunk(send, c.rail, offset + c.offset, c.bytes, attempt + 1);
  }
}

strategy::SplitResult Engine::equal_finish_split(std::span<const RailId> rails,
                                                 std::size_t bytes) const {
  const SimTime now = fabric_->now();
  cost_scratch_.clear();
  cost_scratch_.reserve(rails.size());
  for (RailId r : rails) cost_scratch_.emplace_back(&estimator_->profile(r).rdv_chunk);
  solver_scratch_.clear();
  solver_scratch_.reserve(rails.size());
  for (std::size_t i = 0; i < rails.size(); ++i) {
    const SimTime busy = nics_[rails[i]]->busy_until();
    solver_scratch_.push_back({rails[i], &cost_scratch_[i], busy > now ? busy - now : 0});
  }
  return strategy::solve_equal_finish(solver_scratch_, bytes);
}

void Engine::quarantine_rail(RailId rail) {
  RailHealth& h = rail_health_[rail];
  const SimTime now = fabric_->now();
  if (h.window == 0) h.window = kQuarantine;
  if (h.quarantined) {
    // Repeated trouble while quarantined pushes the lift time out.
    h.until = std::max(h.until, now + h.window);
    return;
  }
  h.quarantined = true;
  h.until = now + h.window;
  metrics_.on_rail_health(rail, false);
  emit({.time = now, .kind = EventKind::kQuarantine, .rail = rail,
        .a = static_cast<std::int64_t>(to_usec(h.window))});
  flight_trigger("quarantine", "rail %u quarantined for %.1f us (backoff window)", rail,
                 to_usec(h.window));
  schedule_reprobe(rail);
}

void Engine::schedule_reprobe(RailId rail) {
  fabric_->events().at(rail_health_[rail].until, [this, rail] { reprobe_rail(rail); });
}

void Engine::reprobe_rail(RailId rail) {
  RailHealth& h = rail_health_[rail];
  if (!h.quarantined) return;  // already lifted by an earlier probe
  const SimTime now = fabric_->now();
  if (now < h.until) {
    // The window was extended after this event was armed; try again then.
    schedule_reprobe(rail);
    return;
  }
  const bool up = nics_[rail]->link_up(now);
  emit({.time = now, .kind = EventKind::kReprobe, .rail = rail, .a = up ? 1 : 0});
  if (up) {
    count(EngineCounter::reprobe_successes);
    metrics_.on_rail_health(rail, true);
    h.quarantined = false;
    h.window = 0;  // healthy again: reset the backoff
    if (!pack_list_.empty() || (qos_ != nullptr && qos_->backlog())) {
      arm_progress(now);
    }
    if (!qos_streams_.empty()) arm_qos_pump();
    return;
  }
  if (h.window >= kMaxQuarantine) {
    // Backoff saturated and the link is still down: treat the rail as
    // fail-stopped and stop probing, so the event queue can drain (an
    // endless probe chain would make run_all() spin forever). The rail
    // stays quarantined; failover's all-quarantined fallback may still try
    // it as a last resort.
    return;
  }
  h.window = std::min(
      static_cast<SimDuration>(static_cast<double>(h.window) * kQuarantineBackoff),
      kMaxQuarantine);
  h.until = now + h.window;
  schedule_reprobe(rail);
}

// ---------------------------------------------------------------------------
// End-to-end reliability: CRC32C, seq windows, ACK/NACK, retransmit
// (docs/FAULTS.md, "Data-plane faults & reliable delivery")
// ---------------------------------------------------------------------------

namespace {

/// Retransmissions per sequence number before giving up, quarantining the
/// last rail used, and triggering a postmortem.
constexpr unsigned kMaxRetransmits = 6;
/// A segment is presumed lost when no ACK covers it within this many times
/// (predicted delivery + kAckDelay), floored at kMinAckTimeout; each
/// retransmit multiplies the wait by kRetransmitBackoff.
constexpr double kAckTimeoutSlack = 4.0;
constexpr SimDuration kMinAckTimeout = 100_us;
constexpr double kRetransmitBackoff = 2.0;
/// Receiver-side ACK coalescing window: one acknowledgement covers every
/// segment accepted within it, so a flood costs one control segment per
/// link per window rather than one per message.
constexpr SimDuration kAckDelay = 25_us;
/// Consecutive inferred losses on one rail before the reliability layer
/// hands it to the quarantine path.
constexpr unsigned kLossStreakQuarantine = 3;

}  // namespace

void Engine::rel_arm(NodeId dst, std::uint64_t seq, SimDuration predicted_flight) {
  RelTxEntry* e = rel_links_.find(dst, seq);
  if (e == nullptr) return;
  if (e->base_timeout == 0) {
    // The PR 2 idiom applied end-to-end: the wait scales with the predicted
    // delivery (plus the receiver's ACK coalescing window), floored so a
    // zero-byte control segment is not declared lost by rounding.
    const auto scaled = static_cast<SimDuration>(
        kAckTimeoutSlack * static_cast<double>(predicted_flight + kAckDelay));
    e->base_timeout = std::max(kMinAckTimeout, scaled);
  }
  SimDuration wait = e->base_timeout;
  for (unsigned i = 0; i < e->retransmits; ++i) {
    wait = static_cast<SimDuration>(static_cast<double>(wait) * kRetransmitBackoff);
  }
  // The event is stale if the entry was retired OR re-armed since (a
  // retransmit bumps `retransmits`, so the captured count identifies this
  // particular arming — no generation counter needed).
  const unsigned expected = e->retransmits;
  fabric_->events().at(fabric_->now() + wait, [this, dst, seq, expected] {
    RelTxEntry* entry = rel_links_.find(dst, seq);
    if (entry != nullptr && entry->retransmits == expected) {
      rel_presume_lost(*entry, /*count_streak=*/true);
    }
  });
}

void Engine::rel_presume_lost(RelTxEntry& entry, bool count_streak) {
  if (count_streak) {
    count(EngineCounter::rel_drops_inferred);
    // Repeated inferred losses concentrated on one rail are a sick link, not
    // independent wire noise: hand it to the PR 2 quarantine/re-probe path.
    if (++rel_loss_streak_[entry.rail] >= kLossStreakQuarantine) {
      rel_loss_streak_[entry.rail] = 0;
      quarantine_rail(entry.rail);
    }
  }
  if (entry.retransmits >= kMaxRetransmits) {
    rel_exhaust(entry);
    return;
  }
  ++entry.retransmits;
  emit({.time = fabric_->now(), .kind = EventKind::kRetransmit, .msg_id = entry.msg_id,
        .rail = entry.rail, .a = static_cast<std::int64_t>(entry.seq),
        .b = entry.retransmits});
  // The copy keeps its seq, so the post parks nothing and `entry` stays put.
  fabric::Segment seg = entry.segment();
  entry.rail = repost_rail(seg);
  post_segment(entry.rail, std::move(seg), config_.scheduler_core);
  rel_arm(entry.dst, entry.seq, /*predicted_flight=*/0);  // base_timeout is already set
}

void Engine::rel_exhaust(RelTxEntry& entry) {
  emit({.time = fabric_->now(), .kind = EventKind::kRetryExhausted,
        .msg_id = entry.msg_id, .rail = entry.rail,
        .a = static_cast<std::int64_t>(entry.seq), .b = entry.retransmits});
  flight_trigger("retry-exhausted",
                 "msg %llu seq %llu (%s) lost %u times: retry budget exhausted on rail %u",
                 static_cast<unsigned long long>(entry.msg_id),
                 static_cast<unsigned long long>(entry.seq), fabric::to_string(entry.kind),
                 entry.retransmits + 1, entry.rail);
  quarantine_rail(entry.rail);
  // A rendezvous send that can no longer deliver its handshake or data fails
  // outright rather than hanging its waiter forever.
  if (entry.kind == fabric::SegKind::kData || entry.kind == fabric::SegKind::kRts) {
    fail_rendezvous(entry.msg_id);
  }
  rel_links_.release(entry);
}

bool Engine::rel_rx_accept(const fabric::Segment& seg) {
  // (1) Integrity: recompute the CRC over what actually arrived.
  if (reliable_crc(seg) != seg.crc) {
    emit({.time = fabric_->now(), .kind = EventKind::kCorruptDetected,
          .msg_id = seg.msg_id, .rail = seg.rail, .a = static_cast<std::int64_t>(seg.seq)});
    // Corruption is detectable loss: tell the sender now instead of letting
    // it burn the full ACK timeout.
    post_control({.kind = fabric::SegKind::kNack, .dst = seg.src, .seq = seg.seq});
    count(EngineCounter::rel_nacks);
    return false;
  }
  // (2) The window: a seq beyond it is dropped, which is safe (the sender
  // retries after the window advances) and unreachable in practice (the
  // window, 1024, is far wider than any TX ring the ACK clock lets build).
  const ReliableLinks::Rx rx = rel_links_.receive(seg.src, seg.seq);
  if (rx == ReliableLinks::Rx::kBeyondWindow) return false;
  if (rx == ReliableLinks::Rx::kDuplicate) {
    emit({.time = fabric_->now(), .kind = EventKind::kDupSuppressed, .msg_id = seg.msg_id,
          .rail = seg.rail, .a = static_cast<std::int64_t>(seg.seq)});
  }
  // (3) The coalesced ACK, re-armed for a duplicate too: a wire duplicate or
  // a retransmit whose original landed means the sender still holds the seq.
  if (rel_links_.arm_ack(seg.src)) {
    fabric_->events().at(fabric_->now() + kAckDelay, [this, src = seg.src] {
      post_control(rel_links_.take_ack(src));
      count(EngineCounter::rel_acks);
    });
  }
  return rx == ReliableLinks::Rx::kAccept;
}

void Engine::rel_handle_ack(const fabric::Segment& seg) {
  if (!config_.reliability.enabled) return;
  rel_links_.acknowledge(seg.src, seg, [this](const RelTxEntry& e) {
    rel_loss_streak_[e.rail] = 0;  // the rail is demonstrably delivering
  });
}

void Engine::rel_handle_nack(const fabric::Segment& seg) {
  if (!config_.reliability.enabled) return;
  // The receiver saw this seq arrive corrupted — skip the timeout and
  // retransmit now (still budget-checked; a rail that keeps corrupting
  // exhausts the budget and gets quarantined like one that keeps dropping).
  if (RelTxEntry* entry = rel_links_.find(seg.src, seg.seq)) {
    rel_presume_lost(*entry, /*count_streak=*/false);
  }
}

}  // namespace rails::core
