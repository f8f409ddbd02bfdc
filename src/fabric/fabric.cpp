#include "fabric/fabric.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/log.hpp"

namespace rails::fabric {

Fabric::Fabric(FabricConfig config)
    : config_(std::move(config)), topo_(config_.net, config_.node_count) {
  RAILS_CHECK_MSG(config_.node_count >= 1, "fabric needs at least one node");
  RAILS_CHECK_MSG(!config_.rails.empty(), "fabric needs at least one rail");

  if (config_.event_sharding) {
    events_.configure_shards(config_.node_count, min_link_latency());
  }
  if (!topo_.direct()) {
    link_busy_.assign(config_.rails.size(),
                      std::vector<SimTime>(topo_.link_count(), 0));
  }

  nics_.resize(config_.node_count);
  rx_handlers_.resize(config_.node_count);
  delivered_payload_.assign(config_.rails.size(), 0);
  cores_.reserve(config_.node_count);

  for (NodeId n = 0; n < config_.node_count; ++n) {
    cores_.emplace_back(config_.topology);
    nics_[n].reserve(config_.rails.size());
    for (RailId r = 0; r < config_.rails.size(); ++r) {
      auto nic = std::make_unique<SimNic>(&events_, NetworkModel(config_.rails[r]), n, r);
      nic->set_deliver([this](Segment&& seg) { route(std::move(seg)); });
      nic->set_fault_seed(config_.fault_seed);
      for (const FabricConfig::RailFault& f : config_.faults) {
        if (f.rail != r) continue;
        if (f.node >= 0 && static_cast<NodeId>(f.node) != n) continue;
        nic->inject_fault(f.spec);
      }
      nics_[n].push_back(std::move(nic));
    }
  }
}

SimDuration Fabric::extra_path_latency(NodeId src, NodeId dst, RailId rail) const {
  const std::uint32_t hops = topo_.hops(src, dst);
  if (hops <= 1) return 0;
  return static_cast<SimDuration>(hops - 1) *
         usec(config_.rails[rail].wire_latency_us);
}

SimDuration Fabric::min_link_latency() const {
  SimDuration m = usec(config_.rails[0].wire_latency_us);
  for (const NetworkModelParams& p : config_.rails) {
    m = std::min(m, usec(p.wire_latency_us));
  }
  return m;
}

SimNic& Fabric::nic(NodeId node, RailId rail) {
  RAILS_CHECK(node < nics_.size() && rail < nics_[node].size());
  return *nics_[node][rail];
}

const SimNic& Fabric::nic(NodeId node, RailId rail) const {
  RAILS_CHECK(node < nics_.size() && rail < nics_[node].size());
  return *nics_[node][rail];
}

SimCores& Fabric::cores(NodeId node) {
  RAILS_CHECK(node < cores_.size());
  return cores_[node];
}

void Fabric::set_rx_handler(NodeId node, RxHandler handler) {
  RAILS_CHECK(node < rx_handlers_.size());
  rx_handlers_[node] = std::move(handler);
}

std::uint64_t Fabric::delivered_payload(RailId rail) const {
  RAILS_CHECK(rail < delivered_payload_.size());
  return delivered_payload_[rail];
}

void Fabric::route(Segment&& seg) {
  RAILS_CHECK_MSG(seg.dst < rx_handlers_.size(), "segment addressed to unknown node");
  RAILS_CHECK_MSG(seg.src != seg.dst, "loopback traffic should not reach the fabric");

  // Reliability ACK/NACKs ride the control lane end-to-end (see
  // SimNic::compute_times): header-only firmware traffic on a dedicated
  // virtual channel, so they skip rx admission and hop occupancy instead of
  // stalling behind bulk arrivals — an acknowledgement stuck behind
  // megabytes of received data would defeat its purpose as a timely loss
  // signal.
  if (seg.kind == SegKind::kAck || seg.kind == SegKind::kNack) {
    deliver(std::move(seg));
    return;
  }
  // The source NIC's wire model already paid the first link's latency, so a
  // segment arrives here positioned at the route's first vertex. On routed
  // shapes with further links to cross, walk them as forwarding events.
  if (!topo_.direct()) {
    const std::uint32_t at = topo_.next_hop(seg.src, seg.dst).to;
    if (at != seg.dst) {
      forward(std::move(seg), at);
      return;
    }
  }
  admit(std::move(seg));
}

void Fabric::forward(Segment&& seg, std::uint32_t at) {
  const topo::Hop h = topo_.next_hop(at, seg.dst);
  const NetworkModelParams& p = config_.rails[seg.rail];
  // Cut-through switching: the link is occupied for the segment's full
  // serialization window, but the leading edge moves on after one hop
  // latency — an uncontended route costs (hops - 1) extra latencies, not
  // (hops - 1) extra serializations.
  SimTime& busy = link_busy_[seg.rail][h.link];
  const SimTime start = std::max(events_.now(), busy);
  busy = start + wire_time(seg.wire_size(), p.dma_bw_mbps);
  const SimTime arrive = start + usec(p.wire_latency_us);
  ++forwarded_segments_;
  RAILS_TRACE("fabric", "forward %s msg=%llu rail=%u %u->%u at=%u via=%u t=%.3fus",
              to_string(seg.kind), static_cast<unsigned long long>(seg.msg_id),
              seg.rail, seg.src, seg.dst, at, h.to, to_usec(events_.now()));
  if (h.to == seg.dst) {
    events_.at_node(arrive, seg.dst,
                    [this, s = std::move(seg)]() mutable { admit(std::move(s)); });
  } else {
    // Switch vertices have no shard of their own; their work rides the
    // destination's shard (any placement pops in the same global order).
    const NodeId affinity = h.to < config_.node_count ? h.to : seg.dst;
    events_.at_node(arrive, affinity, [this, next = h.to, s = std::move(seg)]() mutable {
      forward(std::move(s), next);
    });
  }
}

void Fabric::admit(Segment&& seg) {
  // Receive-port admission: converging flows serialise at the destination
  // NIC. A segment admitted immediately is handed over inline; a delayed
  // one is re-scheduled for its admission time.
  const SimTime deliver_at = nic(seg.dst, seg.rail).admit_rx(events_.now(),
                                                             seg.payload.size());
  if (deliver_at > events_.now()) {
    events_.at_node(deliver_at, seg.dst,
                    [this, s = std::move(seg)]() mutable { deliver(std::move(s)); });
    return;
  }
  deliver(std::move(seg));
}

void Fabric::deliver(Segment&& seg) {
  delivered_payload_[seg.rail] += seg.payload.size();
  RAILS_TRACE("fabric", "deliver %s msg=%llu rail=%u %u->%u len=%zu t=%.3fus",
              to_string(seg.kind), static_cast<unsigned long long>(seg.msg_id), seg.rail,
              seg.src, seg.dst, seg.payload.size(), to_usec(events_.now()));
  auto& handler = rx_handlers_[seg.dst];
  RAILS_CHECK_MSG(handler != nullptr, "destination node has no rx handler");
  handler(std::move(seg));
}

}  // namespace rails::fabric
