// Framing of eager segments.
//
// One eager segment may carry several application packets (aggregation,
// Fig. 4b) and/or a fragment of a larger packet (multicore split, Fig. 7),
// so the payload is a sequence of self-describing sub-packets:
//
//   [msg_id u64][tag u64][msg_total u64][offset u64][frag_len u32][bytes...]*
//
// Rendezvous control and DATA segments use the Segment header fields
// directly and need no framing. With reliability on, every sequenced
// segment also carries reliable_crc() over its wire fields.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "fabric/payload.hpp"
#include "fabric/segment.hpp"

namespace rails::core {

struct SubPacket {
  std::uint64_t msg_id = 0;
  Tag tag = 0;
  std::uint64_t msg_total = 0;  ///< full length of the application message
  std::uint64_t offset = 0;     ///< where this fragment starts in the message
  const std::uint8_t* bytes = nullptr;
  std::uint32_t len = 0;

  static constexpr std::size_t kHeaderBytes = 8 * 4 + 4;
};

/// Appends one framed sub-packet to `out`.
void append_subpacket(fabric::Payload& out, const SubPacket& sp);
void append_subpacket(std::vector<std::uint8_t>& out, const SubPacket& sp);

/// Parses every sub-packet of an eager payload. The returned views alias
/// `payload`; consume them before the segment is destroyed.
std::vector<SubPacket> parse_subpackets(std::span<const std::uint8_t> payload);

/// Scratch-reusing overload: clears `out` and fills it in place, so a
/// caller on the hot receive path pays no allocation once warmed.
void parse_subpackets(std::span<const std::uint8_t> payload, std::vector<SubPacket>& out);

/// Corruption-tolerant parse: returns false (leaving `out` cleared) instead
/// of aborting when the framing is inconsistent — a truncated header, a
/// fragment length pointing past the payload, or a fragment whose
/// offset+len overruns its declared msg_total. Receivers facing a hostile
/// data plane (see fabric/fault.hpp kCorrupt) must use this variant: with
/// reliability (and its wire checksum) off, a flipped bit inside a
/// sub-packet header is otherwise indistinguishable from a malformed frame.
bool try_parse_subpackets(std::span<const std::uint8_t> payload,
                          std::vector<SubPacket>& out);

/// CRC32C over the protocol-stable segment fields plus the payload. `rail`
/// and `attempt` are deliberately excluded: both legitimately change when a
/// segment is retransmitted on another rail, and a retransmission must
/// checksum identically to the original so the receiver's verify works on
/// whichever copy arrives first.
std::uint32_t reliable_crc(const fabric::Segment& seg);

/// Wire size one fragment of `len` bytes will occupy inside a segment.
constexpr std::size_t framed_size(std::size_t len) {
  return SubPacket::kHeaderBytes + len;
}

}  // namespace rails::core
