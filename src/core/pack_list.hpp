// The application layer's pack list (docs/PERF.md, "Submit-path scratch").
//
// isend() appends eager sends here and returns; the scheduler later walks
// the list one destination group at a time. The list is one FIFO of queued
// sends per destination, linked through a slab of entries, plus a ready
// order: a min-heap of destinations keyed by the pack-list position of each
// one's oldest send. Popping it meets groups in exactly the order a scan of
// one flat pack list would.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/message.hpp"

namespace rails::core {

class PackList {
 public:
  /// `nodes` sizes the per-destination table, on the first push.
  explicit PackList(std::size_t nodes = 0) : nodes_(nodes) {}

  /// Number of queued sends.
  std::size_t size() const { return pending_; }
  bool empty() const { return pending_ == 0; }

  /// Appends `send` to the tail of its destination's FIFO.
  void push(SendHandle send);

  /// Hands `plan` each destination group, oldest first, with each group in
  /// submission (or grant) order, until a plan returns true (blocked).
  /// After each plan the fully posted sends leave the list; a plan must
  /// post a send whole or not at all. Visited groups that keep sends are
  /// re-keyed by their new oldest send after the walk, so each group is
  /// planned at most once per walk.
  template <class Plan>
  void plan_groups(Plan&& plan) {
    revisit_.clear();
    while (!ready_.empty()) {
      std::pop_heap(ready_.begin(), ready_.end(), std::greater<>{});
      const NodeId dst = ready_.back().second;
      ready_.pop_back();
      group_.clear();
      for (std::uint32_t e = fifos_[dst].head; e != kNoEntry; e = entries_[e].next) {
        group_.push_back(entries_[e].send.get());
      }
      const bool blocked = plan(std::span<const SendRequest* const>(group_));
      retire_posted(dst);
      if (fifos_[dst].head != kNoEntry) revisit_.push_back(dst);
      if (blocked) break;
    }
    for (const NodeId dst : revisit_) make_ready(dst, entries_[fifos_[dst].head].seq);
  }

 private:
  static constexpr std::uint32_t kNoEntry = ~std::uint32_t{0};
  /// `seq` is the entry's pack-list position; free entries chain through `next`.
  struct Entry {
    SendHandle send;
    std::uint64_t seq = 0;
    std::uint32_t next = kNoEntry;
  };
  struct Fifo {
    std::uint32_t head = kNoEntry;
    std::uint32_t tail = kNoEntry;
  };

  void make_ready(NodeId dst, std::uint64_t seq) {
    ready_.emplace_back(seq, dst);
    std::push_heap(ready_.begin(), ready_.end(), std::greater<>{});
  }
  /// Unlinks the fully posted sends from `dst`'s FIFO.
  void retire_posted(NodeId dst);

  std::size_t nodes_;
  std::vector<Entry> entries_;
  std::uint32_t free_ = kNoEntry;
  std::vector<Fifo> fifos_;  ///< by node id
  std::vector<std::pair<std::uint64_t, NodeId>> ready_;
  std::vector<NodeId> revisit_;             ///< visited, sends left
  std::vector<const SendRequest*> group_;   ///< the span handed to a plan
  std::uint64_t next_seq_ = 0;
  std::size_t pending_ = 0;
};

}  // namespace rails::core
