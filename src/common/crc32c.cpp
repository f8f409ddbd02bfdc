#include "common/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define RAILS_CRC32C_CLMUL 1
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

#ifdef RAILS_CRC32C_CLMUL

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ", Intel 2009). The buffer is read in
// 128-bit lanes. A lane's bits A·x^64 + B stand for that polynomial times
// x^(bits after the lane), so moving a lane D bits further down the buffer
// multiplies it by x^D. Folding does that modulo P with two 64×32-bit
// carry-less products, keeping the lane 128 bits wide, and XORs it into the
// data D bits on. The last lane is then fed through two _mm_crc32_u64, which
// reduce it modulo P and leave an ordinary CRC register for the tail.

// x^n mod P, bit-reflected (bit j holds the coefficient of x^(31-j)).
constexpr std::uint64_t xpow_mod(unsigned n) {
  std::uint32_t v = 0x80000000u;  // x^0
  for (unsigned i = 0; i < n; ++i) v = (v >> 1) ^ ((v & 1u) ? kPoly : 0u);
  return v;
}

// The constant pair that folds a lane forward by `bits`. Operands are
// reflected, so a 64×64 product comes out multiplied by an extra x, and
// each 32-bit constant K sits x^32 up in its 64-bit half: every product
// gains K·x^33. A must move by x^(bits+64), so its K is x^(bits+31); B
// moves by x^bits, so its K is x^(bits-33).
struct FoldPair {
  std::uint64_t first;   ///< multiplies A, the lane's first 8 bytes
  std::uint64_t second;  ///< multiplies B, its last 8 bytes
};
constexpr FoldPair fold_pair(unsigned bits) {
  return {xpow_mod(bits + 31), xpow_mod(bits - 33)};
}
constexpr FoldPair kFold128 = fold_pair(128);
constexpr FoldPair kFold256 = fold_pair(256);
constexpr FoldPair kFold384 = fold_pair(384);
constexpr FoldPair kFold512 = fold_pair(512);
constexpr FoldPair kFold2048 = fold_pair(2048);

inline std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Below this many bytes the plain crc32 chain beats the fold's set-up and
// final reduction (measured crossover: 96 B chain 17.6 ns vs fold 19.1 ns,
// 128 B chain 22.5 ns vs fold 17.0 ns). The fold needs at least 64.
constexpr std::size_t kMinFold = 128;

// Plain crc32 chain over a raw (un-inverted) register.
__attribute__((target("sse4.2"))) inline std::uint64_t crc32_chain(std::uint64_t c,
                                                                  const std::uint8_t* p,
                                                                  std::size_t len) {
  while (len >= 8) {
    c = _mm_crc32_u64(c, load64(p));
    p += 8;
    len -= 8;
  }
  while (len > 0) {
    c = _mm_crc32_u8(static_cast<std::uint32_t>(c), *p++);
    --len;
  }
  return c;
}

__attribute__((target("sse4.2,pclmul"))) inline __m128i fold128(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11));
}

__attribute__((target("sse4.2,pclmul"))) inline __m128i load128(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// The raw CRC register of the 16 bytes in `x`, from a zero register.
__attribute__((target("sse4.2,pclmul"))) inline std::uint64_t lane_crc(__m128i x) {
  const std::uint64_t c =
      _mm_crc32_u64(0, static_cast<std::uint64_t>(_mm_cvtsi128_si64(x)));
  return _mm_crc32_u64(c, static_cast<std::uint64_t>(_mm_extract_epi64(x, 1)));
}

// Folds the whole 16-byte lanes left into `x`, reduces it to a CRC register
// and runs the chain over the last len % 16 bytes.
__attribute__((target("sse4.2,pclmul"))) inline std::uint32_t fold_finish(
    __m128i x, const std::uint8_t* p, std::size_t len) {
  const __m128i k128 = _mm_set_epi64x(kFold128.second, kFold128.first);
  while (len >= 16) {
    x = _mm_xor_si128(fold128(x, k128), load128(p));
    p += 16;
    len -= 16;
  }
  return ~static_cast<std::uint32_t>(crc32_chain(lane_crc(x), p, len));
}

// Four lanes folded onto the last one.
__attribute__((target("sse4.2,pclmul"))) inline __m128i fold4(__m128i x0, __m128i x1,
                                                             __m128i x2, __m128i x3) {
  const __m128i k128 = _mm_set_epi64x(kFold128.second, kFold128.first);
  x0 = _mm_xor_si128(fold128(x0, k128), x1);
  x0 = _mm_xor_si128(fold128(x0, k128), x2);
  return _mm_xor_si128(fold128(x0, k128), x3);
}

// The 128-bit fold issues two carry-less multiplies per 16 bytes and the
// crc32 chain one crc32 per 8; each alone runs at about 8 bytes per cycle,
// but they use different execution ports. So large buffers go in blocks
// that run both at once: three crc32 streams over the block's first three
// kStreamBytes, and the four-lane fold over its last kVectorBytes. Per step
// the streams take 3 x 24 B and the fold 64 B, nine crc32 against eight
// multiplies. At the block's end each stream's register moves to the end
// of the block: c·x^(8n) mod P is one 32x32-bit carry-less product, which
// gains x^33 (see FoldPair), reduced by one crc32. Sixteen steps (2,176 B
// blocks) measured faster than 32 from 3 to 8 KiB and even above.
constexpr std::size_t kBlockSteps = 16;
constexpr std::size_t kStreamBytes = 24 * kBlockSteps;
constexpr std::size_t kVectorBytes = 64 * kBlockSteps;
constexpr std::size_t kBlock = 3 * kStreamBytes + kVectorBytes;

constexpr std::uint32_t shift_const(std::size_t bytes) {
  return static_cast<std::uint32_t>(xpow_mod(static_cast<unsigned>(8 * bytes - 33)));
}

__attribute__((target("sse4.2,pclmul"))) inline std::uint64_t shift_crc(
    std::uint64_t c, std::uint32_t k) {
  const __m128i prod = _mm_clmulepi64_si128(_mm_cvtsi32_si128(static_cast<int>(c)),
                                            _mm_cvtsi32_si128(static_cast<int>(k)), 0x00);
  return _mm_crc32_u64(0, static_cast<std::uint64_t>(_mm_cvtsi128_si64(prod)));
}

// One kBlock of the buffer, from raw register `c` to the register after it.
__attribute__((target("sse4.2,pclmul"))) inline std::uint64_t block_crc(
    std::uint64_t c, const std::uint8_t* p) {
  const std::uint8_t* s0 = p;
  const std::uint8_t* s1 = p + kStreamBytes;
  const std::uint8_t* s2 = p + 2 * kStreamBytes;
  const std::uint8_t* v = p + 3 * kStreamBytes;
  std::uint64_t c0 = c;
  std::uint64_t c1 = 0;
  std::uint64_t c2 = 0;
  __m128i x0 = load128(v);
  __m128i x1 = load128(v + 16);
  __m128i x2 = load128(v + 32);
  __m128i x3 = load128(v + 48);
  v += 64;
  const __m128i k512 = _mm_set_epi64x(kFold512.second, kFold512.first);
  for (std::size_t step = 0; step < kBlockSteps; ++step) {
    for (int i = 0; i < 24; i += 8) {
      c0 = _mm_crc32_u64(c0, load64(s0 + i));
      c1 = _mm_crc32_u64(c1, load64(s1 + i));
      c2 = _mm_crc32_u64(c2, load64(s2 + i));
    }
    s0 += 24;
    s1 += 24;
    s2 += 24;
    if (step + 1 == kBlockSteps) break;
    x0 = _mm_xor_si128(fold128(x0, k512), load128(v));
    x1 = _mm_xor_si128(fold128(x1, k512), load128(v + 16));
    x2 = _mm_xor_si128(fold128(x2, k512), load128(v + 32));
    x3 = _mm_xor_si128(fold128(x3, k512), load128(v + 48));
    v += 64;
  }
  constexpr std::uint32_t k0 = shift_const(2 * kStreamBytes + kVectorBytes);
  constexpr std::uint32_t k1 = shift_const(kStreamBytes + kVectorBytes);
  constexpr std::uint32_t k2 = shift_const(kVectorBytes);
  return shift_crc(c0, k0) ^ shift_crc(c1, k1) ^ shift_crc(c2, k2) ^
         lane_crc(fold4(x0, x1, x2, x3));
}

__attribute__((target("avx512f"))) inline __m512i load512(const std::uint8_t* p) {
  return _mm512_loadu_si512(p);
}

__attribute__((target("avx512f"))) inline __m512i fold_pair512(FoldPair k) {
  return _mm512_set_epi64(k.second, k.first, k.second, k.first, k.second, k.first, k.second,
                          k.first);
}

// One 128-bit lane. The zero-masked form: GCC 12's plain extract reads an
// "undefined" register and warns under -Wall.
template <int kLane>
__attribute__((target("avx512f"))) inline __m128i lane512(__m512i z) {
  return _mm512_maskz_extracti32x4_epi32(0xF, z, kLane);
}

// Each 128-bit lane of `a` folded by its lane of `k`, XOR `b`, in one
// ternary-logic op (0x96 is the three-way XOR).
__attribute__((target("avx512f,vpclmulqdq"))) inline __m512i fold_xor(__m512i a, __m512i k,
                                                                     __m512i b) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(a, k, 0x00),
                                   _mm512_clmulepi64_epi128(a, k, 0x11), b, 0x96);
}

#endif  // RAILS_CRC32C_CLMUL

using ExtendFn = std::uint32_t (*)(std::uint32_t, const void*, std::size_t);

struct Path {
  ExtendFn extend;
  const char* name;
};

Path pick_path() {
  if (detail::crc32c_vpclmul_supported()) return {detail::crc32c_extend_vpclmul, "vpclmul"};
  if (detail::crc32c_pclmul_supported()) return {detail::crc32c_extend_pclmul, "pclmul"};
  return {detail::crc32c_extend_portable, "portable"};
}

const Path& dispatched() {
  static const Path kPath = pick_path();
  return kPath;
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

#ifdef RAILS_CRC32C_CLMUL

bool crc32c_pclmul_supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2") && __builtin_cpu_supports("pclmul");
}

bool crc32c_vpclmul_supported() {
  return crc32c_pclmul_supported() && __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("vpclmulqdq");
}

__attribute__((target("sse4.2,pclmul"))) std::uint32_t crc32c_extend_pclmul(
    std::uint32_t crc, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t c = ~crc;
  while (len >= kBlock) {
    c = block_crc(c, p);
    p += kBlock;
    len -= kBlock;
  }
  if (len < kMinFold) return ~static_cast<std::uint32_t>(crc32_chain(c, p, len));
  // Four lanes in flight hide the multiply latency; each folds 512 bits on.
  __m128i x0 = _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load128(p + 16);
  __m128i x2 = load128(p + 32);
  __m128i x3 = load128(p + 48);
  p += 64;
  len -= 64;
  const __m128i k512 = _mm_set_epi64x(kFold512.second, kFold512.first);
  while (len >= 64) {
    x0 = _mm_xor_si128(fold128(x0, k512), load128(p));
    x1 = _mm_xor_si128(fold128(x1, k512), load128(p + 16));
    x2 = _mm_xor_si128(fold128(x2, k512), load128(p + 32));
    x3 = _mm_xor_si128(fold128(x3, k512), load128(p + 48));
    p += 64;
    len -= 64;
  }
  return fold_finish(fold4(x0, x1, x2, x3), p, len);
}

__attribute__((target("sse4.2,pclmul,avx512f,avx512vl,vpclmulqdq"))) std::uint32_t
crc32c_extend_vpclmul(std::uint32_t crc, const void* data, std::size_t len) {
  constexpr std::size_t kStep = 256;
  const auto* p = static_cast<const std::uint8_t*>(data);
  if (len < kStep) return crc32c_extend_pclmul(crc, data, len);
  // Four 512-bit registers, i.e. sixteen 128-bit lanes, each folding 2048
  // bits on per step.
  __m512i z0 = _mm512_xor_si512(
      load512(p), _mm512_zextsi128_si512(_mm_cvtsi32_si128(static_cast<int>(~crc))));
  __m512i z1 = load512(p + 64);
  __m512i z2 = load512(p + 128);
  __m512i z3 = load512(p + 192);
  p += kStep;
  len -= kStep;
  const __m512i k2048 = fold_pair512(kFold2048);
  while (len >= kStep) {
    z0 = fold_xor(z0, k2048, load512(p));
    z1 = fold_xor(z1, k2048, load512(p + 64));
    z2 = fold_xor(z2, k2048, load512(p + 128));
    z3 = fold_xor(z3, k2048, load512(p + 192));
    p += kStep;
    len -= kStep;
  }
  const __m512i k512 = fold_pair512(kFold512);
  z0 = fold_xor(z0, k512, z1);
  z0 = fold_xor(z0, k512, z2);
  z0 = fold_xor(z0, k512, z3);
  while (len >= 64) {
    z0 = fold_xor(z0, k512, load512(p));
    p += 64;
    len -= 64;
  }
  // Lanes 0-2 fold on by 384, 256 and 128 bits onto lane 3; the zero
  // constants in lane 3 leave its product 0.
  const __m512i k_lanes = _mm512_set_epi64(0, 0, kFold128.second, kFold128.first,
                                           kFold256.second, kFold256.first,
                                           kFold384.second, kFold384.first);
  const __m512i f = fold_xor(z0, k_lanes, _mm512_setzero_si512());
  __m128i x = _mm_xor_si128(lane512<3>(z0), lane512<0>(f));
  x = _mm_xor_si128(x, lane512<1>(f));
  x = _mm_xor_si128(x, lane512<2>(f));
  return fold_finish(x, p, len);
}

#else  // no carry-less multiply on this target: the portable path stands in

bool crc32c_pclmul_supported() { return false; }
bool crc32c_vpclmul_supported() { return false; }

std::uint32_t crc32c_extend_pclmul(std::uint32_t crc, const void* data, std::size_t len) {
  return crc32c_extend_portable(crc, data, len);
}

std::uint32_t crc32c_extend_vpclmul(std::uint32_t crc, const void* data, std::size_t len) {
  return crc32c_extend_portable(crc, data, len);
}

#endif  // RAILS_CRC32C_CLMUL

const char* crc32c_path() { return dispatched().name; }

}  // namespace detail

std::uint32_t crc32c_extend(std::uint32_t crc, const void* data, std::size_t len) {
  static const ExtendFn kExtend = dispatched().extend;
  return kExtend(crc, data, len);
}

std::uint32_t crc32c(const void* data, std::size_t len) {
  return crc32c_extend(0, data, len);
}

}  // namespace rails
