// Streaming-store placement against memcpy, byte for byte, for every body
// the running CPU can execute: every source
// and destination misalignment, every short length, the lengths around
// the size from which the engine streams, and multi-MiB chunks. Each copy
// must leave the bytes on either side of its destination untouched.
#include "common/stream_copy.hpp"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace rails {
namespace {

constexpr std::size_t kGuard = 64;  // bytes checked untouched on each side
constexpr std::uint8_t kFill = 0xA5;

using Copy = void (*)(void*, const void*, std::size_t);

/// stream_copy and every streaming body the running CPU can execute.
std::vector<std::pair<const char*, Copy>> copies() {
  std::vector<std::pair<const char*, Copy>> out{{"stream_copy", stream_copy}};
#if defined(__x86_64__)
  out.emplace_back("sse2", detail::stream_copy_sse2);
  if (detail::stream_copy_has_avx512()) out.emplace_back("avx512", detail::stream_copy_avx512);
#endif
  return out;
}

/// A source pattern and a kFill destination, both with room for any
/// misalignment 0-63 and a guard band on each side of the destination.
class Arena {
 public:
  explicit Arena(std::size_t max_len)
      : src_(test::make_pattern(max_len + 64, max_len)), dst_(max_len + 64 + 2 * kGuard + 64) {
    std::fill(dst_.begin(), dst_.end(), kFill);
  }

  /// Runs `copy` at the given misalignments (from a 64-byte boundary),
  /// checks the copy and the guards, then restores the fill.
  ::testing::AssertionResult check(Copy copy, std::size_t dst_mis, std::size_t src_mis,
                                   std::size_t len) {
    std::uint8_t* dst = aligned(dst_.data() + kGuard) + dst_mis;
    const std::uint8_t* src = aligned(src_.data()) + src_mis;
    copy(dst, src, len);
    const auto fail = [&](const char* what) {
      return ::testing::AssertionFailure() << what << " at dst+" << dst_mis << " src+"
                                           << src_mis << " len " << len;
    };
    if (std::memcmp(dst, src, len) != 0) return fail("copy differs from source");
    const auto untouched = [](const std::uint8_t* p, std::size_t n) {
      return std::all_of(p, p + n, [](std::uint8_t b) { return b == kFill; });
    };
    if (!untouched(dst - kGuard, kGuard)) return fail("wrote before the destination");
    if (!untouched(dst + len, kGuard)) return fail("wrote past the destination");
    std::memset(dst, kFill, len);
    return ::testing::AssertionSuccess();
  }

 private:
  static std::uint8_t* aligned(const std::uint8_t* p) {
    const auto up = (reinterpret_cast<std::uintptr_t>(p) + 63) & ~std::uintptr_t{63};
    return reinterpret_cast<std::uint8_t*>(up);
  }

  std::vector<std::uint8_t> src_;
  std::vector<std::uint8_t> dst_;
};

TEST(StreamCopy, MatchesMemcpyAtEveryMisalignment) {
  // Long enough to run the head, the four-vector body, the one-vector loop
  // and the tail whatever the destination alignment.
  const std::size_t len = (std::size_t{64} << 10) + 255;
  Arena arena(len);
  for (const auto& [name, copy] : copies()) {
    SCOPED_TRACE(name);
    for (std::size_t dst_mis = 0; dst_mis < 64; ++dst_mis) {
      for (std::size_t src_mis = 0; src_mis < 64; ++src_mis) {
        ASSERT_TRUE(arena.check(copy, dst_mis, src_mis, len));
      }
    }
  }
}

constexpr std::pair<std::size_t, std::size_t> kMisalignments[] = {
    {0, 0}, {1, 0}, {0, 1}, {17, 45}, {32, 16}, {63, 63}};

TEST(StreamCopy, MatchesMemcpyAtEveryShortLength) {
  // Lengths that end inside the head, the one-vector loop or the tail.
  Arena arena(320);
  for (const auto& [name, copy] : copies()) {
    SCOPED_TRACE(name);
    for (std::size_t len = 0; len <= 320; ++len) {
      for (const auto& [dst_mis, src_mis] : kMisalignments) {
        ASSERT_TRUE(arena.check(copy, dst_mis, src_mis, len));
      }
    }
  }
}

TEST(StreamCopy, MatchesMemcpyAroundTheThreshold) {
  // Every tail length at the receive-buffer size from which the engine
  // streams.
  Arena arena(kStreamCopyThreshold + 129);
  for (const auto& [name, copy] : copies()) {
    SCOPED_TRACE(name);
    for (std::size_t len = kStreamCopyThreshold - 1; len <= kStreamCopyThreshold + 129; ++len) {
      for (const auto& [dst_mis, src_mis] : {kMisalignments[0], kMisalignments[3]}) {
        ASSERT_TRUE(arena.check(copy, dst_mis, src_mis, len));
      }
    }
  }
}

TEST(StreamCopy, MatchesMemcpyOnMultiMiBChunks) {
  Arena arena(std::size_t{4} << 20);
  for (const auto& [name, copy] : copies()) {
    SCOPED_TRACE(name);
    for (const std::size_t len : {std::size_t{3} << 20, (std::size_t{3} << 20) + 5,
                                  (std::size_t{4} << 20) - 1}) {
      ASSERT_TRUE(arena.check(copy, 0, 0, len));
      ASSERT_TRUE(arena.check(copy, 13, 50, len));
    }
  }
}

}  // namespace
}  // namespace rails
