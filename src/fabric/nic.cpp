#include "fabric/nic.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace rails::fabric {

const char* to_string(SegKind kind) {
  switch (kind) {
    case SegKind::kEager: return "EAGER";
    case SegKind::kRts: return "RTS";
    case SegKind::kCts: return "CTS";
    case SegKind::kData: return "DATA";
    case SegKind::kFin: return "FIN";
    case SegKind::kAck: return "ACK";
    case SegKind::kNack: return "NACK";
  }
  return "?";
}

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kFailStop: return "fail-stop";
    case FaultKind::kFlap: return "flap";
    case FaultKind::kDegrade: return "degrade";
    case FaultKind::kLatency: return "latency";
    case FaultKind::kDrop: return "drop";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kDup: return "dup";
    case FaultKind::kReorder: return "reorder";
  }
  return "?";
}

bool is_data_plane(FaultKind kind) {
  return kind == FaultKind::kDrop || kind == FaultKind::kCorrupt ||
         kind == FaultKind::kDup || kind == FaultKind::kReorder;
}

namespace {

/// True when the (possibly open-ended) fault window [at, at + duration)
/// intersects the closed interval [begin, end].
bool window_overlaps(const FaultSpec& f, SimTime begin, SimTime end) {
  if (f.at > end) return false;
  if (f.duration <= 0) return true;  // open-ended window
  return f.at + f.duration > begin;
}

}  // namespace

void SimNic::inject_fault(const FaultSpec& fault) {
  if (fault.kind == FaultKind::kDegrade) {
    RAILS_CHECK_MSG(fault.factor >= 1.0, "degrade factor < 1 would beat the hardware model");
  }
  faults_.push_back(fault);
}

bool SimNic::down_overlaps(SimTime begin, SimTime end) const {
  for (const FaultSpec& f : faults_) {
    const bool down_kind = f.kind == FaultKind::kFailStop || f.kind == FaultKind::kFlap;
    if (!down_kind) continue;
    // A fail-stop never recovers regardless of the declared duration.
    FaultSpec window = f;
    if (f.kind == FaultKind::kFailStop) window.duration = 0;
    if (window_overlaps(window, begin, end)) return true;
  }
  return false;
}

double SimNic::fault_scale_at(SimTime t) const {
  double scale = 1.0;
  for (const FaultSpec& f : faults_) {
    if (f.kind == FaultKind::kDegrade && window_overlaps(f, t, t)) scale *= f.factor;
  }
  return scale;
}

SimDuration SimNic::fault_latency_at(SimTime t) const {
  SimDuration extra = 0;
  for (const FaultSpec& f : faults_) {
    if (f.kind == FaultKind::kLatency && window_overlaps(f, t, t)) extra += f.extra_latency;
  }
  return extra;
}

namespace {

TransferTiming scale_timing(TransferTiming t, double scale) {
  if (scale != 1.0) {
    t.host = static_cast<SimDuration>(static_cast<double>(t.host) * scale);
    t.nic = static_cast<SimDuration>(static_cast<double>(t.nic) * scale);
    t.total = static_cast<SimDuration>(static_cast<double>(t.total) * scale);
  }
  return t;
}

}  // namespace

SimNic::PostTimes SimNic::compute_times(const Segment& seg, SimTime earliest) const {
  PostTimes t;
  if (seg.kind == SegKind::kData) {
    // DMA chunk: the host only writes a descriptor — it does not wait for
    // the injection port. The stream begins when the port frees up, so a
    // busy NIC delays the data but never stalls the submitting core (this
    // is what lets the strategy feed the other rails immediately, Fig. 2).
    // Active degrade faults stretch the transfer; latency faults postpone
    // only the delivery (the injection port frees on schedule).
    const TransferTiming timing =
        scale_timing(model_.rendezvous(seg.payload.size(), /*include_handshake=*/false),
                     perf_scale_ * fault_scale_at(earliest));
    t.host_start = earliest;
    t.host_end = t.host_start + timing.host;
    const SimDuration stream = timing.nic - timing.host;
    const SimDuration tail = timing.total - timing.nic;
    const SimTime stream_begin = std::max(t.host_end, busy_until_);
    t.nic_end = stream_begin + stream;
    t.deliver_at = t.nic_end + tail + fault_latency_at(earliest);
    return t;
  }

  // Eager and control segments are PIO: the submitting core performs the
  // injection itself, so it queues behind a busy port.
  TransferTiming timing;
  bool control_lane = false;
  switch (seg.kind) {
    case SegKind::kEager:
      timing = model_.eager(seg.payload.size());
      break;
    case SegKind::kAck:
    case SegKind::kNack:
      // Reliability acknowledgements ride a dedicated control lane (the
      // analogue of a separate virtual channel): header-only, negligible
      // bandwidth, and — crucially — never queued behind bulk injection.
      // Without the bypass, a reverse-path ACK stuck behind megabytes of
      // queued data looks exactly like a silent drop to the peer's
      // retransmit timer, and a congested-but-healthy wire would spuriously
      // retransmit. These kinds exist only when reliability is enabled, so
      // the bypass cannot perturb baseline timing.
      timing = model_.eager(0);
      control_lane = true;
      break;
    case SegKind::kRts:
    case SegKind::kCts:
    case SegKind::kFin:
      // Rendezvous control rides the eager path with a header-only payload.
      timing = model_.eager(0);
      break;
    case SegKind::kData:
      break;  // handled above
  }
  t.host_start = control_lane ? earliest : std::max(earliest, busy_until_);
  timing = scale_timing(timing, perf_scale_ * fault_scale_at(t.host_start));
  t.host_end = t.host_start + timing.host;
  t.nic_end = t.host_start + timing.nic;
  t.deliver_at = t.host_start + timing.total + fault_latency_at(t.host_start);
  return t;
}

SimNic::PostTimes SimNic::preview(const Segment& seg, SimTime earliest) const {
  return compute_times(seg, earliest);
}

SimTime SimNic::admit_rx(SimTime arrival, std::size_t payload_bytes) {
  // The segment's bytes occupied the port for `occupancy` (drained at the
  // technology's link rate) *ending* at the delivery instant: a segment
  // arriving at `arrival` was on the wire during [arrival - occupancy,
  // arrival], so an uncontended port finishes exactly at arrival — a single
  // steady stream is never delayed. If the port is still draining earlier
  // traffic, reception restarts after it: deliver = rx_busy + occupancy.
  const SimDuration occupancy = static_cast<SimDuration>(
      static_cast<double>(wire_time(payload_bytes, model_.params().dma_bw_mbps)) *
      perf_scale_);
  const SimTime deliver = std::max(arrival, rx_busy_until_ + occupancy);
  rx_busy_until_ = deliver;
  return deliver;
}

SimNic::WireFate SimNic::draw_fate(Segment& seg, SimTime begin, SimTime end) {
  WireFate fate;
  for (const FaultSpec& f : faults_) {
    if (!is_data_plane(f.kind) || f.rate <= 0.0) continue;
    if (!window_overlaps(f, begin, end)) continue;
    switch (f.kind) {
      case FaultKind::kDrop:
        if (!fate.silent_drop && fault_rng_.uniform() < f.rate) {
          fate.silent_drop = true;
          ++segments_silently_dropped_;
        }
        break;
      case FaultKind::kCorrupt:
        if (fault_rng_.uniform() < f.rate) {
          // Flip one random payload bit; header-only segments have their
          // stored checksum damaged instead (the simulation stand-in for a
          // header bit flip — struct fields must stay parseable). A chunk
          // that borrows the sender's buffer is copied first: the fault
          // damages the bytes on the wire, never the sender's memory.
          if (!seg.payload.empty()) {
            const std::uint64_t bit = fault_rng_.below(seg.payload.size() * 8);
            seg.payload.mutable_data()[bit >> 3] ^=
                static_cast<std::uint8_t>(1u << (bit & 7));
          } else {
            seg.crc ^= 1u << fault_rng_.below(32);
          }
          ++segments_corrupted_;
        }
        break;
      case FaultKind::kDup:
        if (!fate.duplicate && fault_rng_.uniform() < f.rate) {
          fate.duplicate = true;
          ++segments_duplicated_;
        }
        break;
      case FaultKind::kReorder: {
        const double rate = f.rate > 1.0 ? 1.0 : f.rate;
        if (f.reorder_window > 0 && fault_rng_.uniform() < rate) {
          const std::uint64_t slip = fault_rng_.below(f.reorder_window + 1);
          if (slip > 0) {
            fate.reorder_slip += static_cast<SimDuration>(slip) *
                                 usec(model_.params().wire_latency_us);
            ++segments_reordered_;
          }
        }
        break;
      }
      default:
        break;
    }
  }
  return fate;
}

SimNic::PostTimes SimNic::post(Segment seg, SimTime earliest) {
  RAILS_CHECK_MSG(deliver_ != nullptr, "SimNic has no delivery route installed");
  RAILS_CHECK_MSG(seg.rail == rail_, "segment posted on the wrong rail");
  const PostTimes t = compute_times(seg, earliest);
  // max, not assignment: a control-lane ACK finishes "in the past" relative
  // to a queued bulk backlog and must not hand its slot to later bulk posts.
  busy_until_ = std::max(busy_until_, t.nic_end);

  ++segments_sent_;
  bytes_sent_ += seg.wire_size();
  payload_bytes_sent_ += seg.payload.size();

  // Data-plane fate is drawn here, after timing: preview() must stay
  // RNG-pure so strategy predictions never perturb fault outcomes.
  const WireFate fate = draw_fate(seg, t.host_start, t.deliver_at);
  const SimTime deliver_at = t.deliver_at + fate.reorder_slip;
  // Arrival work belongs to the destination: with a sharded queue this
  // keeps each node's event stream on its own partition.
  const NodeId arrival_node = seg.dst;

  if (fate.duplicate) {
    // The duplicate trails the original by one wire latency, like a
    // link-layer retransmit whose first copy was not actually lost. It is
    // delivery-only: no second completion, no extra port occupancy.
    Segment copy = seg;
    events_->at_node(deliver_at + usec(model_.params().wire_latency_us), arrival_node,
                     [this, begin = t.host_start, end = t.deliver_at, s = std::move(copy)]() mutable {
                       if (down_overlaps(begin, end)) return;
                       deliver_(std::move(s));
                     });
  }

  // Delivery-time fate: a segment whose flight interval crosses a down
  // window is lost. The sender learns about it through the tx-error hook at
  // the instant delivery would have happened — the same place a reliable
  // transport surfaces a completion-queue error. A silent (data-plane) drop
  // is the opposite: the completion fires and the wire eats the bytes.
  events_->at_node(deliver_at, arrival_node,
                   [this, begin = t.host_start, end = t.deliver_at, drop = fate.silent_drop,
                    s = std::move(seg)]() mutable {
                if (down_overlaps(begin, end)) {
                  ++segments_dropped_;
                  if (tx_error_ != nullptr) tx_error_(std::move(s));
                  return;
                }
                if (tx_complete_ != nullptr) tx_complete_(s);
                if (drop) return;
                deliver_(std::move(s));
              });
  return t;
}

}  // namespace rails::fabric
