#include "core/wire_format.hpp"

#include <cstring>

#include "common/check.hpp"
#include "common/crc32c.hpp"

namespace rails::core {

namespace {

template <typename Buf>
void put_u64(Buf& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

template <typename Buf>
void put_u32(Buf& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_bytes(fabric::Payload& out, const std::uint8_t* bytes, std::size_t n) {
  out.append(bytes, n);
}

void put_bytes(std::vector<std::uint8_t>& out, const std::uint8_t* bytes, std::size_t n) {
  out.insert(out.end(), bytes, bytes + n);
}

template <typename Buf>
void append_framed(Buf& out, const SubPacket& sp) {
  out.reserve(out.size() + framed_size(sp.len));
  put_u64(out, sp.msg_id);
  put_u64(out, sp.tag);
  put_u64(out, sp.msg_total);
  put_u64(out, sp.offset);
  put_u32(out, sp.len);
  if (sp.len > 0) {
    RAILS_CHECK(sp.bytes != nullptr);
    put_bytes(out, sp.bytes, sp.len);
  }
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

void append_subpacket(fabric::Payload& out, const SubPacket& sp) { append_framed(out, sp); }

void append_subpacket(std::vector<std::uint8_t>& out, const SubPacket& sp) {
  append_framed(out, sp);
}

std::vector<SubPacket> parse_subpackets(std::span<const std::uint8_t> payload) {
  std::vector<SubPacket> out;
  parse_subpackets(payload, out);
  return out;
}

void parse_subpackets(std::span<const std::uint8_t> payload, std::vector<SubPacket>& out) {
  out.clear();
  std::size_t pos = 0;
  while (pos < payload.size()) {
    RAILS_CHECK_MSG(pos + SubPacket::kHeaderBytes <= payload.size(),
                    "truncated sub-packet header");
    SubPacket sp;
    sp.msg_id = get_u64(&payload[pos]);
    sp.tag = get_u64(&payload[pos + 8]);
    sp.msg_total = get_u64(&payload[pos + 16]);
    sp.offset = get_u64(&payload[pos + 24]);
    sp.len = get_u32(&payload[pos + 32]);
    pos += SubPacket::kHeaderBytes;
    RAILS_CHECK_MSG(pos + sp.len <= payload.size(), "truncated sub-packet body");
    sp.bytes = sp.len > 0 ? &payload[pos] : nullptr;
    pos += sp.len;
    out.push_back(sp);
  }
}

bool try_parse_subpackets(std::span<const std::uint8_t> payload,
                          std::vector<SubPacket>& out) {
  out.clear();
  std::size_t pos = 0;
  while (pos < payload.size()) {
    if (pos + SubPacket::kHeaderBytes > payload.size()) {
      out.clear();
      return false;  // truncated header
    }
    SubPacket sp;
    sp.msg_id = get_u64(&payload[pos]);
    sp.tag = get_u64(&payload[pos + 8]);
    sp.msg_total = get_u64(&payload[pos + 16]);
    sp.offset = get_u64(&payload[pos + 24]);
    sp.len = get_u32(&payload[pos + 32]);
    pos += SubPacket::kHeaderBytes;
    if (pos + sp.len > payload.size() ||           // truncated body
        sp.offset + sp.len < sp.offset ||          // offset wraparound
        sp.offset + sp.len > sp.msg_total) {       // fragment overruns message
      out.clear();
      return false;
    }
    sp.bytes = sp.len > 0 ? &payload[pos] : nullptr;
    pos += sp.len;
    out.push_back(sp);
  }
  return true;
}

std::uint32_t reliable_crc(const fabric::Segment& seg) {
  std::uint8_t hdr[49];
  std::size_t n = 0;
  hdr[n++] = static_cast<std::uint8_t>(seg.kind);
  const auto put32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) hdr[n++] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  const auto put64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) hdr[n++] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  put32(seg.src);
  put32(seg.dst);
  put64(seg.msg_id);
  put64(seg.tag);
  put64(seg.offset);
  put64(seg.total_len);
  put64(seg.seq);
  const std::uint32_t head = crc32c(hdr, n);
  if (seg.payload.empty()) return head;
  return crc32c_extend(head, seg.payload.data(), seg.payload.size());
}

}  // namespace rails::core
