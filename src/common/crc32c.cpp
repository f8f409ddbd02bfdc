#include "common/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define RAILS_CRC32C_SSE42 1
#endif

namespace rails {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // Castagnoli, reflected

struct Tables {
  std::array<std::array<std::uint32_t, 256>, 8> t;

  Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      for (std::size_t slice = 1; slice < 8; ++slice) {
        t[slice][i] = (t[slice - 1][i] >> 8) ^ t[0][t[slice - 1][i] & 0xFFu];
      }
    }
  }
};

const Tables& tables() {
  static const Tables kTables;
  return kTables;
}

#ifdef RAILS_CRC32C_SSE42

// Three-lane interleave: a block is three adjacent lanes of kLane bytes.
// The lanes are checksummed independently, so the three crc32 instructions
// per step have no data dependency and keep the crc32 unit busy (3-cycle
// latency, one issue per cycle). A single dependent chain runs at a third
// of the instruction's throughput.
constexpr std::size_t kLane = 2048;
constexpr std::size_t kBlock = 3 * kLane;

// ShiftTable(n) maps a raw CRC register r to the register after feeding n
// zero bytes, i.e. r * x^(8n) mod P. The map is linear over GF(2), so it
// splits into four byte-indexed 256-entry tables.
struct ShiftTable {
  std::array<std::array<std::uint32_t, 256>, 4> t;

  explicit ShiftTable(std::size_t zero_bytes) {
    const auto& t0 = tables().t[0];
    // Image of each single-bit register, then XOR images for each byte.
    std::array<std::uint32_t, 32> basis{};
    for (unsigned bit = 0; bit < 32; ++bit) {
      std::uint32_t crc = 1u << bit;
      for (std::size_t n = 0; n < zero_bytes; ++n) crc = (crc >> 8) ^ t0[crc & 0xFFu];
      basis[bit] = crc;
    }
    for (unsigned byte = 0; byte < 4; ++byte) {
      for (std::uint32_t v = 0; v < 256; ++v) {
        std::uint32_t img = 0;
        for (unsigned bit = 0; bit < 8; ++bit) {
          if (v & (1u << bit)) img ^= basis[8 * byte + bit];
        }
        t[byte][v] = img;
      }
    }
  }

  std::uint32_t operator()(std::uint32_t crc) const {
    return t[0][crc & 0xFFu] ^ t[1][(crc >> 8) & 0xFFu] ^ t[2][(crc >> 16) & 0xFFu] ^
           t[3][crc >> 24];
  }
};

struct LaneShifts {
  ShiftTable one{kLane};
  ShiftTable two{2 * kLane};
};

const LaneShifts& lane_shifts() {
  static const LaneShifts kShifts;
  return kShifts;
}

inline std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

__attribute__((target("sse4.2"))) std::uint32_t crc32c_extend_sse42(std::uint32_t crc,
                                                                    const void* data,
                                                                    std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t c = ~crc;

  while (len > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    c = _mm_crc32_u8(static_cast<std::uint32_t>(c), *p++);
    --len;
  }
  while (len >= kBlock) {
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (std::size_t i = 0; i < kLane; i += 8) {
      c = _mm_crc32_u64(c, load64(p + i));
      c1 = _mm_crc32_u64(c1, load64(p + kLane + i));
      c2 = _mm_crc32_u64(c2, load64(p + 2 * kLane + i));
    }
    // Lane 0's register moves past lanes 1 and 2, lane 1's past lane 2.
    const LaneShifts& shift = lane_shifts();
    c = shift.two(static_cast<std::uint32_t>(c)) ^ shift.one(static_cast<std::uint32_t>(c1)) ^
        static_cast<std::uint32_t>(c2);
    p += kBlock;
    len -= kBlock;
  }
  while (len >= 8) {
    c = _mm_crc32_u64(c, load64(p));
    p += 8;
    len -= 8;
  }
  while (len > 0) {
    c = _mm_crc32_u8(static_cast<std::uint32_t>(c), *p++);
    --len;
  }
  return ~static_cast<std::uint32_t>(c);
}

#endif  // RAILS_CRC32C_SSE42

using ExtendFn = std::uint32_t (*)(std::uint32_t, const void*, std::size_t);

ExtendFn pick_extend() {
#ifdef RAILS_CRC32C_SSE42
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return crc32c_extend_sse42;
#endif
  return detail::crc32c_extend_portable;
}

}  // namespace

namespace detail {

std::uint32_t crc32c_extend_portable(std::uint32_t crc, const void* data, std::size_t len) {
  const auto& t = tables().t;
  const auto* p = static_cast<const std::uint8_t*>(data);
  crc = ~crc;

  // Byte-at-a-time until the cursor is 8-aligned, then slice-by-8.
  while (len > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFFu];
    --len;
  }
  while (len >= 8) {
    // Little-endian load expressed byte-wise so the routine is
    // endian-agnostic; the compiler folds it into one load on LE targets.
    const std::uint32_t lo = crc ^ (static_cast<std::uint32_t>(p[0]) |
                                    static_cast<std::uint32_t>(p[1]) << 8 |
                                    static_cast<std::uint32_t>(p[2]) << 16 |
                                    static_cast<std::uint32_t>(p[3]) << 24);
    const std::uint32_t hi = static_cast<std::uint32_t>(p[4]) |
                             static_cast<std::uint32_t>(p[5]) << 8 |
                             static_cast<std::uint32_t>(p[6]) << 16 |
                             static_cast<std::uint32_t>(p[7]) << 24;
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  while (len > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFFu];
    --len;
  }
  return ~crc;
}

}  // namespace detail

std::uint32_t crc32c_extend(std::uint32_t crc, const void* data, std::size_t len) {
  static const ExtendFn kExtend = pick_extend();
  return kExtend(crc, data, len);
}

std::uint32_t crc32c(const void* data, std::size_t len) {
  return crc32c_extend(0, data, len);
}

}  // namespace rails
