// The transfer layer's sequence and window format (docs/FAULTS.md,
// "Data-plane faults & reliable delivery").
//
// Per peer link, the sender numbers every sequenced segment (0 stays
// "unsequenced" on the wire) and parks its bytes, shared or borrowed rather
// than copied, in a power-of-two ring slab (slot = seq & (size - 1)) until an
// ACK retires it. The receiver keeps a cumulative edge (every seq at or
// below it arrived) and a kRxWindow-seq bitmap ring above it, which makes
// receives exactly-once. An ACK travels in header fields only: `seq`
// carries the cumulative edge and `offset` a selective bitmap of the 64
// seqs above it. The policy around this format (CRC verification,
// timeouts and backoff, retransmission, giving up) stays in the Engine.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "fabric/segment.hpp"

namespace rails::core {

/// One unacknowledged sequenced segment (a slot in a link's ring).
struct RelTxEntry {
  bool in_use = false;
  fabric::SegKind kind = fabric::SegKind::kEager;
  unsigned attempt = 0;
  unsigned retransmits = 0;       ///< end-to-end retransmissions so far
  RailId rail = 0;                ///< rail of the latest transmission
  NodeId dst = 0;
  std::uint64_t seq = 0;
  std::uint64_t msg_id = 0;
  Tag tag = 0;
  std::uint64_t offset = 0;
  std::uint64_t total_len = 0;
  std::uint32_t crc = 0;
  SimDuration base_timeout = 0;   ///< first-transmission ACK wait (pre-backoff)
  /// The segment's bytes, shared with every transmission of it: a
  /// retransmit takes one more reference, and a corrupt fault copies before
  /// it writes, so these stay the original. Eager and control bytes are
  /// pooled storage (fabric::Payload::share). A DATA chunk borrows the send
  /// buffer through the send's pin until FIN, when own_parked_data gives it
  /// a shared copy of its own.
  fabric::Payload payload;

  /// The segment rebuilt around the parked bytes: byte-identical to the
  /// original (same seq, same CRC), so whichever copy lands first passes
  /// verification and the other dies in the receiver's window.
  fabric::Segment segment() const;
};

class ReliableLinks {
 public:
  /// Span of the receive bitmap above the cumulative edge.
  static constexpr std::uint64_t kRxWindow = 16 * 64;

  explicit ReliableLinks(std::size_t peers = 0) : links_(peers) {}

  /// Sequenced segments posted but not yet acknowledged.
  std::uint64_t live() const { return live_; }

  // -- sender ----------------------------------------------------------------
  /// Gives `seg` the next seq of its link and its CRC, then parks a
  /// reference to its bytes in a fresh entry sent on `rail`.
  RelTxEntry& stash(fabric::Segment& seg, RailId rail);
  /// The live entry for (dst, seq), or nullptr once it retired.
  RelTxEntry* find(NodeId dst, std::uint64_t seq) {
    std::vector<RelTxEntry>& ring = links_[dst].ring;
    if (ring.empty()) return nullptr;
    RelTxEntry& e = ring[seq & (ring.size() - 1)];
    return (e.in_use && e.seq == seq) ? &e : nullptr;
  }
  /// Gives every parked DATA entry of `msg_id` to `dst` its own pooled copy
  /// of the bytes it borrowed from the send buffer, so the sender can end
  /// the loan while ACKs are still out.
  void own_parked_data(NodeId dst, std::uint64_t msg_id);
  /// Frees the entry; its payload reference is dropped with it (the last
  /// reference returns the bytes to the pool).
  void release(RelTxEntry& entry) {
    entry.in_use = false;
    entry.payload.clear();
    --live_;
  }
  /// Retires every live entry that `ack`, received from `peer`, covers,
  /// calling `retired(entry)` before each release. ACKs state monotone
  /// facts, so a reordered stale ACK is harmless: its edge is behind ours
  /// and its selective bits name seqs that genuinely landed.
  template <class F>
  void acknowledge(NodeId peer, const fabric::Segment& ack, F&& retired) {
    Link& link = links_[peer];
    const auto retire = [&](std::uint64_t seq) {
      if (RelTxEntry* e = find(peer, seq)) {
        retired(*e);
        release(*e);
      }
    };
    while (link.oldest_unacked <= ack.seq) retire(link.oldest_unacked++);
    for (unsigned i = 0; i < 64; ++i) {
      if ((ack.offset >> i) & 1) retire(ack.seq + 1 + i);
    }
  }

  // -- receiver --------------------------------------------------------------
  enum class Rx { kAccept, kDuplicate, kBeyondWindow };
  /// Records `seq` from `src` and advances the cumulative edge over any run
  /// of now-contiguous seqs, unless the seq was already received or lies
  /// beyond the window (it could not be recorded, so its retransmit would
  /// be an undetectable duplicate).
  Rx receive(NodeId src, std::uint64_t seq) {
    Link& link = links_[src];
    if (seq > link.rx_cumulative + kRxWindow) return Rx::kBeyondWindow;
    if (seq <= link.rx_cumulative || link.received(seq - 1)) return Rx::kDuplicate;
    link.rx_word(seq - 1) |= 1ull << ((seq - 1) & 63);
    // Bit `rx_cumulative` is seq rx_cumulative + 1: consume the run of set bits.
    while (link.received(link.rx_cumulative)) {
      link.rx_word(link.rx_cumulative) &= ~(1ull << (link.rx_cumulative & 63));
      ++link.rx_cumulative;
    }
    return Rx::kAccept;
  }
  /// Arms the coalesced ACK to `src`; false when one is already armed.
  bool arm_ack(NodeId src);
  /// Disarms the ACK to `src` and returns it, ready to post.
  fabric::Segment take_ack(NodeId src);

 private:
  struct Link {
    std::uint64_t next_seq = 1;
    std::uint64_t oldest_unacked = 1;
    std::vector<RelTxEntry> ring;     ///< power-of-two, slot = seq & (size-1)
    std::uint64_t rx_cumulative = 0;  ///< every seq <= this was accepted
    /// Bit (seq - 1) of the ring marks seq received, for seqs in
    /// (rx_cumulative, rx_cumulative + kRxWindow].
    std::array<std::uint64_t, kRxWindow / 64> rx_bits{};
    bool ack_armed = false;

    std::uint64_t& rx_word(std::uint64_t bit) {
      return rx_bits[(bit >> 6) % rx_bits.size()];
    }
    bool received(std::uint64_t bit) { return ((rx_word(bit) >> (bit & 63)) & 1) != 0; }
  };

  std::vector<Link> links_;  ///< by peer node id
  std::uint64_t live_ = 0;
};

}  // namespace rails::core
