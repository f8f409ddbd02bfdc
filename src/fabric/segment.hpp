// Wire format: the unit of data a NIC injects onto a rail.
//
// A segment is what one driver post produces. The header fields cover the
// whole engine protocol (eager data — possibly carrying several aggregated
// application packets — rendezvous control, and rendezvous DMA chunks), so
// the fabric can stay ignorant of engine policy while still letting tests
// inspect traffic.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "fabric/payload.hpp"

namespace rails::fabric {

enum class SegKind : std::uint8_t {
  kEager = 0,  ///< eager data; payload framed as one or more sub-packets
  kRts,        ///< rendezvous request-to-send (control)
  kCts,        ///< rendezvous clear-to-send (control)
  kData,       ///< rendezvous DMA chunk
  kFin,        ///< rendezvous completion notification (control)
  kAck,        ///< reliability: cumulative + selective acknowledgement (control)
  kNack,       ///< reliability: checksum-failure report, names the bad `seq`
};

const char* to_string(SegKind kind);

struct Segment {
  SegKind kind = SegKind::kEager;
  NodeId src = 0;
  NodeId dst = 0;
  RailId rail = 0;

  /// Engine-assigned message id (per source node); control segments of one
  /// rendezvous share the id of their message.
  std::uint64_t msg_id = 0;
  Tag tag = 0;

  /// For kData: byte offset of this chunk inside the message. For kRts: the
  /// full message length travels in `total_len`.
  std::uint64_t offset = 0;
  std::uint64_t total_len = 0;

  /// Retransmission generation: 0 for the original post, incremented each
  /// time the engine re-posts the same byte range after a NIC error or a
  /// chunk timeout. Lets stale timeout events recognise superseded chunks.
  std::uint8_t attempt = 0;

  /// End-to-end wire checksum (CRC32C over the protocol-stable header
  /// fields + payload; see Engine's reliability layer). 0 when reliability
  /// is off. Excluded from its own coverage, as on any real wire.
  std::uint32_t crc = 0;

  /// Reliability sequence number, per (src, dst) link, assigned when the
  /// sending engine has `reliability` enabled. 0 = unsequenced (reliability
  /// off, or a kAck/kNack control segment — for kAck this field instead
  /// carries the cumulative acknowledgement).
  std::uint64_t seq = 0;

  /// Real payload bytes (kEager, kData). Control segments carry none. A
  /// rendezvous DATA chunk may borrow the sender's buffer (payload.hpp).
  Payload payload{};

  std::size_t wire_size() const { return payload.size() + kHeaderBytes; }

  /// Modeled size of the segment header on the wire. The reliability fields
  /// (seq, crc) occupy reserved bytes of the original 40-byte header, so
  /// enabling reliability does not change modeled wire occupancy.
  static constexpr std::size_t kHeaderBytes = 40;
};

// The NIC's delivery closure carries a Segment by value and must fit
// InlineHandler's inline buffer, or every delivery spills to the heap.
static_assert(sizeof(Segment) == 88);

}  // namespace rails::fabric
