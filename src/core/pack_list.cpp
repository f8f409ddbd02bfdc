#include "core/pack_list.hpp"

#include "common/check.hpp"

namespace rails::core {

void PackList::push(SendHandle send) {
  const NodeId dst = send->dst;
  if (fifos_.size() <= dst) {
    fifos_.resize(std::max<std::size_t>(nodes_, dst + std::size_t{1}));
    ready_.reserve(fifos_.size());
  }
  std::uint32_t e = free_;
  if (e != kNoEntry) {
    free_ = entries_[e].next;
  } else {
    e = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back();
  }
  Entry& entry = entries_[e];
  entry.send = std::move(send);
  entry.seq = next_seq_++;
  entry.next = kNoEntry;
  Fifo& fifo = fifos_[dst];
  if (fifo.head == kNoEntry) {
    // A destination's oldest send is the newest in the pack list when its
    // FIFO was empty, so it joins the ready order last.
    fifo.head = e;
    make_ready(dst, entry.seq);
  } else {
    entries_[fifo.tail].next = e;
  }
  fifo.tail = e;
  ++pending_;
}

void PackList::retire_posted(NodeId dst) {
  Fifo& fifo = fifos_[dst];
  std::uint32_t prev = kNoEntry;
  std::uint32_t e = fifo.head;
  while (e != kNoEntry) {
    Entry& entry = entries_[e];
    const std::uint32_t next = entry.next;
    const SendRequest& send = *entry.send;
    RAILS_CHECK_MSG(send.bytes_posted == 0 || send.bytes_posted == send.len,
                    "strategy left a send partially posted");
    if (send.bytes_posted == send.len) {
      (prev == kNoEntry ? fifo.head : entries_[prev].next) = next;
      if (fifo.tail == e) fifo.tail = prev;
      entry.send.reset();
      entry.next = free_;
      free_ = e;
      --pending_;
    } else {
      prev = e;
    }
    e = next;
  }
}

}  // namespace rails::core
