#include "common/stream_copy.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace rails {

#if defined(__x86_64__)

namespace {

/// Bytes to copy before `dst` reaches `align`-byte alignment (at most `n`).
std::size_t head_bytes(const std::uint8_t* dst, std::size_t align, std::size_t n) {
  const std::size_t mis = reinterpret_cast<std::uintptr_t>(dst) & (align - 1);
  return std::min(n, mis == 0 ? 0 : align - mis);
}

}  // namespace

// Both bodies: memcpy the head up to vector alignment, stream four vectors
// per iteration (one vector at a time for the last few), memcpy the tail.

void detail::stream_copy_sse2(void* dst, const void* src, std::size_t n) {
  auto* d = static_cast<std::uint8_t*>(dst);
  const auto* s = static_cast<const std::uint8_t*>(src);
  const std::size_t head = head_bytes(d, 16, n);
  std::memcpy(d, s, head);
  n -= head;
  auto* out = reinterpret_cast<__m128i*>(d + head);
  const auto* in = reinterpret_cast<const __m128i*>(s + head);
  for (; n >= 64; out += 4, in += 4, n -= 64) {
    const __m128i a = _mm_loadu_si128(in), b = _mm_loadu_si128(in + 1);
    const __m128i c = _mm_loadu_si128(in + 2), e = _mm_loadu_si128(in + 3);
    _mm_stream_si128(out, a);
    _mm_stream_si128(out + 1, b);
    _mm_stream_si128(out + 2, c);
    _mm_stream_si128(out + 3, e);
  }
  for (; n >= 16; ++out, ++in, n -= 16) _mm_stream_si128(out, _mm_loadu_si128(in));
  std::memcpy(out, in, n);
  _mm_sfence();
}

__attribute__((target("avx512f"))) void detail::stream_copy_avx512(void* dst, const void* src,
                                                                   std::size_t n) {
  auto* d = static_cast<std::uint8_t*>(dst);
  const auto* s = static_cast<const std::uint8_t*>(src);
  const std::size_t head = head_bytes(d, 64, n);
  std::memcpy(d, s, head);
  n -= head;
  auto* out = reinterpret_cast<__m512i*>(d + head);
  const auto* in = reinterpret_cast<const __m512i*>(s + head);
  for (; n >= 256; out += 4, in += 4, n -= 256) {
    const __m512i a = _mm512_loadu_si512(in), b = _mm512_loadu_si512(in + 1);
    const __m512i c = _mm512_loadu_si512(in + 2), e = _mm512_loadu_si512(in + 3);
    _mm512_stream_si512(out, a);
    _mm512_stream_si512(out + 1, b);
    _mm512_stream_si512(out + 2, c);
    _mm512_stream_si512(out + 3, e);
  }
  for (; n >= 64; ++out, ++in, n -= 64) _mm512_stream_si512(out, _mm512_loadu_si512(in));
  std::memcpy(out, in, n);
  _mm_sfence();
}

bool detail::stream_copy_has_avx512() {
  static const bool kHas = __builtin_cpu_supports("avx512f");
  return kHas;
}

void stream_copy(void* dst, const void* src, std::size_t n) {
  if (detail::stream_copy_has_avx512()) {
    detail::stream_copy_avx512(dst, src, n);
  } else {
    detail::stream_copy_sse2(dst, src, n);
  }
}

#else

void stream_copy(void* dst, const void* src, std::size_t n) { std::memcpy(dst, src, n); }

#endif

}  // namespace rails
