#include "core/reliable_links.hpp"

#include "core/wire_format.hpp"

namespace rails::core {

fabric::Segment RelTxEntry::segment() const {
  return {.kind = kind, .dst = dst, .msg_id = msg_id, .tag = tag, .offset = offset,
          .total_len = total_len, .attempt = static_cast<std::uint8_t>(attempt),
          .crc = crc, .seq = seq, .payload = payload};
}

RelTxEntry& ReliableLinks::stash(fabric::Segment& seg, RailId rail) {
  Link& link = links_[seg.dst];
  seg.seq = link.next_seq++;
  seg.crc = reliable_crc(seg);
  if (link.ring.empty()) link.ring.resize(64);
  // Sequence numbers are consecutive, so a collision means ring.size()
  // segments are simultaneously unacked: double until the window fits.
  // This only happens during warmup or a loss storm; the ring never shrinks.
  while (link.ring[seg.seq & (link.ring.size() - 1)].in_use) {
    std::vector<RelTxEntry> bigger(link.ring.size() * 2);
    for (RelTxEntry& e : link.ring) {
      if (e.in_use) bigger[e.seq & (bigger.size() - 1)] = std::move(e);
    }
    link.ring = std::move(bigger);
  }
  seg.payload.share();  // the entry takes a reference, not a copy
  RelTxEntry& e = link.ring[seg.seq & (link.ring.size() - 1)];
  e = {.in_use = true, .kind = seg.kind, .attempt = seg.attempt, .rail = rail,
       .dst = seg.dst, .seq = seg.seq, .msg_id = seg.msg_id, .tag = seg.tag,
       .offset = seg.offset, .total_len = seg.total_len, .crc = seg.crc,
       .payload = seg.payload};
  ++live_;
  return e;
}

void ReliableLinks::own_parked_data(NodeId dst, std::uint64_t msg_id) {
  for (RelTxEntry& e : links_[dst].ring) {
    if (!e.in_use || e.kind != fabric::SegKind::kData || e.msg_id != msg_id) continue;
    e.payload.mutable_data();  // copy-on-write into pooled storage...
    e.payload.share();         // ...shared, so a retransmit takes a reference
  }
}

bool ReliableLinks::arm_ack(NodeId src) {
  if (links_[src].ack_armed) return false;
  links_[src].ack_armed = true;
  return true;
}

fabric::Segment ReliableLinks::take_ack(NodeId src) {
  Link& link = links_[src];
  link.ack_armed = false;
  std::uint64_t bits = 0;
  for (unsigned i = 0; i < 64; ++i) {
    if (link.received(link.rx_cumulative + i)) bits |= 1ull << i;  // seq cumulative+1+i
  }
  return {.kind = fabric::SegKind::kAck, .dst = src, .offset = bits,
          .seq = link.rx_cumulative};
}

}  // namespace rails::core
