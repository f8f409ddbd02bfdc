// Streaming-store placement against memcpy, byte for byte, for every body
// the running CPU can execute and for the split copy cut into 1-4 slices:
// every source and destination misalignment, every short length, the
// lengths around the size from which the engine streams, around each slice
// boundary and around the size from which copies split, and multi-MiB
// chunks. Each copy must leave the bytes on either side of its destination
// untouched.
#include "common/stream_copy.hpp"

#include <algorithm>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace rails {
namespace {

constexpr std::size_t kGuard = 64;  // bytes checked untouched on each side
constexpr std::uint8_t kFill = 0xA5;

using Copy = void (*)(void*, const void*, std::size_t);

template <unsigned Parts>
void copy_in_parts(void* dst, const void* src, std::size_t n) {
  detail::stream_copy_parts(dst, src, n, Parts);
}

/// stream_copy, every streaming body the running CPU can execute, and the
/// split copy: by size, and cut into each slice count.
std::vector<std::pair<const char*, Copy>> copies() {
  std::vector<std::pair<const char*, Copy>> out{{"stream_copy", stream_copy}};
#if defined(__x86_64__)
  out.emplace_back("sse2", detail::stream_copy_sse2);
  if (detail::stream_copy_has_avx512()) out.emplace_back("avx512", detail::stream_copy_avx512);
#endif
  out.emplace_back("split", stream_copy_split);
  out.emplace_back("parts1", copy_in_parts<1>);
  out.emplace_back("parts2", copy_in_parts<2>);
  out.emplace_back("parts3", copy_in_parts<3>);
  out.emplace_back("parts4", copy_in_parts<4>);
  return out;
}

static_assert(kMaxPlaceParts == 4, "copies() covers slice counts 1-4");

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

TEST(SplitCopy, MatchesMemcpyAroundEverySliceBoundary) {
  // A slice ends at the first 64-byte boundary of the destination at or
  // after its share of the bytes: every destination misalignment puts that
  // share at every offset within a line, and the three lengths put it one
  // byte before, on and after a multiple of the slice count.
  constexpr std::size_t kShare = std::size_t{16} << 10;
  const std::pair<unsigned, Copy> cuts[] = {{1, copy_in_parts<1>},
                                            {2, copy_in_parts<2>},
                                            {3, copy_in_parts<3>},
                                            {4, copy_in_parts<4>}};
  Arena arena(kMaxPlaceParts * kShare + 1);
  for (const auto& [parts, copy] : cuts) {
    SCOPED_TRACE(parts);
    for (std::size_t dst_mis = 0; dst_mis < 64; ++dst_mis) {
      const std::size_t even = parts * kShare;
      for (const std::size_t len : {even - 1, even, even + 1}) {
        ASSERT_TRUE(arena.check(copy, dst_mis, 63 - dst_mis, len));
        ASSERT_TRUE(arena.check(copy, dst_mis, dst_mis, len));
      }
    }
  }
}

TEST(SplitCopy, MatchesMemcpyAroundTheSplitMinimum) {
  // One side copies on the calling core, the other splits.
  Arena arena(kSplitCopyMin + 129);
  for (std::size_t len = kSplitCopyMin - 129; len <= kSplitCopyMin + 129; ++len) {
    for (const auto& [dst_mis, src_mis] : {kMisalignments[0], kMisalignments[3]}) {
      ASSERT_TRUE(arena.check(stream_copy_split, dst_mis, src_mis, len));
    }
  }
}

TEST(SplitCopy, HelpersAreTheCpusBesideTheCallerUpToTheCap) {
  unsigned cpus = 1;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof set, &set), 0);
  cpus = static_cast<unsigned>(CPU_COUNT(&set));
#endif
  EXPECT_EQ(detail::stream_copy_helpers(), std::min(cpus, kMaxPlaceParts) - 1);
}

TEST(SplitCopy, RepeatedCopiesReuseTheHelpers) {
  // The same helpers serve every copy: each must see its own slice, never
  // a stale one from the copy before.
  constexpr std::size_t kLen = (std::size_t{3} << 19) + 77;  // 1.5 MiB + 77
  std::vector<std::uint8_t> dst(kLen);
  for (std::uint64_t round = 0; round < 64; ++round) {
    const auto src = test::make_pattern(kLen, round);
    const std::size_t len = kLen - round * 4099;  // a different cut each round
    std::fill(dst.begin(), dst.end(), kFill);
    stream_copy_split(dst.data(), src.data(), len);
    ASSERT_EQ(std::memcmp(dst.data(), src.data(), len), 0) << "round " << round;
    ASSERT_TRUE(std::all_of(dst.begin() + static_cast<std::ptrdiff_t>(len), dst.end(),
                            [](std::uint8_t b) { return b == kFill; }))
        << "round " << round;
  }
}

TEST(SplitCopy, ConcurrentCallersEachGetTheirBytes) {
  // Two threads split at once: one has the helpers, the other copies on
  // its own core; neither may receive the other's slices.
  constexpr std::size_t kLen = (std::size_t{1} << 20) + 4097;
  constexpr int kRounds = 24;
  const auto worker = [&](std::uint64_t seed, bool* ok) {
    std::vector<std::uint8_t> dst(kLen);
    for (int r = 0; r < kRounds; ++r) {
      const auto src = test::make_pattern(kLen, seed + static_cast<std::uint64_t>(r));
      stream_copy_split(dst.data(), src.data(), kLen);
      if (dst != src) *ok = false;
    }
  };
  bool ok_a = true, ok_b = true;
  std::thread a(worker, 1000, &ok_a);
  std::thread b(worker, 2000, &ok_b);
  a.join();
  b.join();
  EXPECT_TRUE(ok_a);
  EXPECT_TRUE(ok_b);
}

}  // namespace
}  // namespace rails
