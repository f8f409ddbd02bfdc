#include "core/wire_format.hpp"

#include <algorithm>
#include <cstring>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "common/crc32c.hpp"
#include "test_util.hpp"

namespace rails::core {
namespace {

TEST(WireFormat, SingleSubPacketRoundTrip) {
  const auto data = test::make_pattern(100, 1);
  std::vector<std::uint8_t> payload;
  append_subpacket(payload, {7, 42, 100, 0, data.data(), 100});
  EXPECT_EQ(payload.size(), framed_size(100));

  const auto parsed = parse_subpackets(payload);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].msg_id, 7u);
  EXPECT_EQ(parsed[0].tag, 42u);
  EXPECT_EQ(parsed[0].msg_total, 100u);
  EXPECT_EQ(parsed[0].offset, 0u);
  ASSERT_EQ(parsed[0].len, 100u);
  EXPECT_EQ(std::vector<std::uint8_t>(parsed[0].bytes, parsed[0].bytes + 100), data);
}

TEST(WireFormat, AggregatedSubPacketsPreserveOrder) {
  std::vector<std::uint8_t> payload;
  std::vector<std::vector<std::uint8_t>> bodies;
  for (std::uint64_t i = 0; i < 5; ++i) {
    bodies.push_back(test::make_pattern(10 + i * 7, i));
    append_subpacket(payload, {i, i * 2, bodies[i].size(), 0, bodies[i].data(),
                               static_cast<std::uint32_t>(bodies[i].size())});
  }
  const auto parsed = parse_subpackets(payload);
  ASSERT_EQ(parsed.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(parsed[i].msg_id, i);
    EXPECT_EQ(parsed[i].tag, i * 2);
    EXPECT_EQ(std::vector<std::uint8_t>(parsed[i].bytes, parsed[i].bytes + parsed[i].len),
              bodies[i]);
  }
}

TEST(WireFormat, ZeroLengthFragment) {
  std::vector<std::uint8_t> payload;
  append_subpacket(payload, {1, 2, 0, 0, nullptr, 0});
  EXPECT_EQ(payload.size(), SubPacket::kHeaderBytes);
  const auto parsed = parse_subpackets(payload);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].len, 0u);
  EXPECT_EQ(parsed[0].bytes, nullptr);
}

TEST(WireFormat, FragmentWithOffset) {
  const auto data = test::make_pattern(64, 3);
  std::vector<std::uint8_t> payload;
  append_subpacket(payload, {9, 1, 4096, 2048, data.data(), 64});
  const auto parsed = parse_subpackets(payload);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].msg_total, 4096u);
  EXPECT_EQ(parsed[0].offset, 2048u);
}

TEST(WireFormat, EmptyPayloadParsesToNothing) {
  EXPECT_TRUE(parse_subpackets({}).empty());
}

TEST(WireFormat, LargeFieldValuesSurvive) {
  const std::uint64_t big = 0xFEDCBA9876543210ULL;
  std::vector<std::uint8_t> payload;
  append_subpacket(payload, {big, big - 1, big - 2, big - 3, nullptr, 0});
  const auto parsed = parse_subpackets(payload);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].msg_id, big);
  EXPECT_EQ(parsed[0].tag, big - 1);
  EXPECT_EQ(parsed[0].msg_total, big - 2);
  EXPECT_EQ(parsed[0].offset, big - 3);
}

// -- corruption-tolerant parsing (reliability PR) ----------------------------

TEST(WireFormatTolerant, AcceptsWhatTheAbortingParserAccepts) {
  std::vector<std::uint8_t> payload;
  std::vector<std::vector<std::uint8_t>> bodies;
  for (std::uint64_t i = 0; i < 4; ++i) {
    bodies.push_back(test::make_pattern(32 + i * 11, i));
    append_subpacket(payload, {i, i, bodies[i].size(), 0, bodies[i].data(),
                               static_cast<std::uint32_t>(bodies[i].size())});
  }
  std::vector<SubPacket> out;
  ASSERT_TRUE(try_parse_subpackets(payload, out));
  const auto reference = parse_subpackets(payload);
  ASSERT_EQ(out.size(), reference.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].msg_id, reference[i].msg_id);
    EXPECT_EQ(out[i].len, reference[i].len);
    EXPECT_EQ(out[i].bytes, reference[i].bytes);
  }
}

TEST(WireFormatTolerant, RejectsTruncatedHeader) {
  std::vector<std::uint8_t> payload(SubPacket::kHeaderBytes - 1, 0);
  std::vector<SubPacket> out;
  EXPECT_FALSE(try_parse_subpackets(payload, out));
  EXPECT_TRUE(out.empty());
}

TEST(WireFormatTolerant, RejectsTruncatedBody) {
  std::vector<std::uint8_t> payload;
  const auto body = test::make_pattern(16, 1);
  append_subpacket(payload, {1, 1, 16, 0, body.data(), 16});
  payload.pop_back();
  std::vector<SubPacket> out;
  EXPECT_FALSE(try_parse_subpackets(payload, out));
}

TEST(WireFormatTolerant, RejectsFragmentOverrunningItsMessage) {
  // offset + len > msg_total: the shape a flipped header bit produces, and
  // exactly what a receiver must not scribble into its buffer.
  std::vector<std::uint8_t> payload;
  const auto body = test::make_pattern(64, 2);
  append_subpacket(payload, {1, 1, /*msg_total=*/32, /*offset=*/0, body.data(), 64});
  std::vector<SubPacket> out;
  EXPECT_FALSE(try_parse_subpackets(payload, out));
}

TEST(WireFormatTolerant, RejectsOffsetWraparound) {
  std::vector<std::uint8_t> payload;
  const auto body = test::make_pattern(8, 3);
  append_subpacket(payload,
                   {1, 1, 64, /*offset=*/~std::uint64_t{0} - 3, body.data(), 8});
  std::vector<SubPacket> out;
  EXPECT_FALSE(try_parse_subpackets(payload, out));
}

TEST(WireFormatTolerant, EmptyPayloadIsValid) {
  std::vector<SubPacket> out{SubPacket{}};
  EXPECT_TRUE(try_parse_subpackets({}, out));
  EXPECT_TRUE(out.empty());
}

// -- CRC32C ------------------------------------------------------------------

TEST(Crc32c, KnownAnswerVectors) {
  // RFC 3720 appendix B.4 test vectors (Castagnoli polynomial).
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c("", 0), 0u);
  const std::uint8_t zeros[32] = {};
  EXPECT_EQ(crc32c(zeros, 32), 0x8A9136AAu);
  std::uint8_t ones[32];
  std::memset(ones, 0xFF, 32);
  EXPECT_EQ(crc32c(ones, 32), 0x62A8AB43u);
  std::uint8_t ascending[32];
  std::uint8_t descending[32];
  for (std::uint8_t i = 0; i < 32; ++i) {
    ascending[i] = i;
    descending[i] = static_cast<std::uint8_t>(31 - i);
  }
  EXPECT_EQ(crc32c(ascending, 32), 0x46DD794Eu);
  EXPECT_EQ(crc32c(descending, 32), 0x113FDB5Cu);
}

TEST(Crc32c, IncrementalEqualsOneShotAtEverySplit) {
  const auto data = test::make_pattern(253, 9);  // odd length: exercises the
                                                 // byte-wise tail after the
                                                 // 8-byte loop
  const std::uint32_t whole = crc32c(data.data(), data.size());
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::uint32_t head = crc32c_extend(0, data.data(), split);
    const std::uint32_t full =
        crc32c_extend(head, data.data() + split, data.size() - split);
    ASSERT_EQ(full, whole) << "split at " << split;
  }
}

using Crc32cExtend = std::uint32_t (*)(std::uint32_t, const void*, std::size_t);

// Compares `extend` with the portable slice-by-8 on every length, fold
// edge, misalignment, seed and chaining the fast paths treat differently.
void expect_matches_portable(Crc32cExtend extend, const char* name) {
  SCOPED_TRACE(name);
  constexpr std::size_t kMaxLen = 1_MiB + 15;
  constexpr std::size_t kMaxMisalign = 63;
  std::mt19937_64 rng(18);
  std::vector<std::uint8_t> buf(kMaxLen + kMaxMisalign);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());

  // Every length to 1,100 B covers the chain/fold switch at 128 B, the
  // 16-byte lane edges (15/16/17), the 64 B fold steps (63/64/65) and the
  // 512-bit fold's 256 B step (255/256/257, 320 = one step plus one 64 B
  // fold). The 128-bit fold's 2,176 B crc32/multiply blocks add their own
  // edges: one block, one block plus the 128 B fold minimum, two blocks.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 1100; ++n) lengths.push_back(n);
  for (std::size_t n :
       {2175, 2176, 2177, 2176 + 127, 2176 + 128, 2176 + 129, 4351, 4352, 4353, 5452}) {
    lengths.push_back(n);
  }
  for (std::size_t n : {64_KiB, 64_KiB + 1, 128_KiB - 1, 256_KiB + 7, 512_KiB + 17, 1_MiB,
                        kMaxLen}) {
    lengths.push_back(n);
  }
  for (std::size_t len : lengths) {
    for (std::size_t misalign = 0; misalign <= kMaxMisalign; ++misalign) {
      const std::uint8_t* p = buf.data() + misalign;
      ASSERT_EQ(extend(0, p, len), detail::crc32c_extend_portable(0, p, len))
          << len << " B at misalignment " << misalign;
      const auto seed = static_cast<std::uint32_t>(rng());
      ASSERT_EQ(extend(seed, p, len), detail::crc32c_extend_portable(seed, p, len))
          << len << " B at misalignment " << misalign << ", seed " << seed;
    }
  }

  // Chaining at random split points, short and long, equals the one-shot
  // portable value.
  const std::uint32_t whole = detail::crc32c_extend_portable(0, buf.data() + 3, kMaxLen);
  for (int trial = 0; trial < 16; ++trial) {
    std::uint32_t crc = 0;
    std::size_t done = 0;
    const std::size_t max_step = trial % 2 == 0 ? 300 : 20_KiB;
    while (done < kMaxLen) {
      const std::size_t step = std::min<std::size_t>(kMaxLen - done, rng() % max_step);
      crc = extend(crc, buf.data() + 3 + done, step);
      done += step;
    }
    ASSERT_EQ(crc, whole) << "trial " << trial;
  }
}

TEST(Crc32c, HardwareAndPortablePathsAgree) {
  // crc32c_extend dispatches to the fastest path this CPU can run; the
  // PclmulFold and VpclmulFold tests below compare each path's values.
  const char* fastest = detail::crc32c_vpclmul_supported()  ? "vpclmul"
                        : detail::crc32c_pclmul_supported() ? "pclmul"
                                                            : "portable";
  EXPECT_STREQ(detail::crc32c_path(), fastest);
  const auto data = test::make_pattern(64_KiB + 7, 21);
  for (const std::size_t len : {std::size_t{0}, std::size_t{100}, std::size_t{5000},
                                data.size()}) {
    EXPECT_EQ(crc32c_extend(0x1234u, data.data(), len),
              detail::crc32c_extend_portable(0x1234u, data.data(), len))
        << len << " B";
  }
}

TEST(Crc32c, PclmulFoldMatchesPortable) {
  if (!detail::crc32c_pclmul_supported()) {
    GTEST_SKIP() << "this CPU cannot run the pclmul path";
  }
  expect_matches_portable(detail::crc32c_extend_pclmul, "pclmul");
}

TEST(Crc32c, VpclmulFoldMatchesPortable) {
  if (!detail::crc32c_vpclmul_supported()) {
    GTEST_SKIP() << "this CPU cannot run the vpclmul path";
  }
  expect_matches_portable(detail::crc32c_extend_vpclmul, "vpclmul");
}

TEST(Crc32c, DetectsEverySingleBitFlip) {
  auto data = test::make_pattern(64, 10);
  const std::uint32_t clean = crc32c(data.data(), data.size());
  for (std::size_t bit = 0; bit < data.size() * 8; ++bit) {
    data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    ASSERT_NE(crc32c(data.data(), data.size()), clean) << "bit " << bit;
    data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

TEST(WireFormatDeath, TruncatedHeaderAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<std::uint8_t> payload(SubPacket::kHeaderBytes - 1, 0);
  EXPECT_DEATH(parse_subpackets(payload), "truncated");
}

TEST(WireFormatDeath, TruncatedBodyAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<std::uint8_t> payload;
  const std::uint8_t byte = 0xAA;
  append_subpacket(payload, {1, 1, 8, 0, &byte, 1});
  payload.pop_back();  // drop the body byte
  EXPECT_DEATH(parse_subpackets(payload), "truncated");
}

}  // namespace
}  // namespace rails::core
