// ReliableLinks on its own, with no World: the receive window's bounds and
// exactly-once bookkeeping, the TX ring, and the ACK encoding against the
// retire walk it drives.
#include "core/reliable_links.hpp"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/wire_format.hpp"

namespace rails::core {
namespace {

using Rx = ReliableLinks::Rx;
constexpr NodeId kPeer = 1;

/// Stashes one segment from node 0 to kPeer and returns its seq.
std::uint64_t stash(ReliableLinks& links, std::uint64_t msg_id, std::size_t bytes = 0) {
  fabric::Segment seg{.kind = fabric::SegKind::kData, .src = 0, .dst = kPeer,
                      .msg_id = msg_id, .offset = msg_id * 8};
  for (std::size_t i = 0; i < bytes; ++i) {
    seg.payload.push_back(static_cast<std::uint8_t>(i));
  }
  links.stash(seg, /*rail=*/1);
  return seg.seq;
}

TEST(ReliableLinks, WindowAcceptsCumulativePlus1024AndRefuses1025) {
  ReliableLinks links(2);
  EXPECT_EQ(links.receive(kPeer, ReliableLinks::kRxWindow + 1), Rx::kBeyondWindow);
  EXPECT_EQ(links.receive(kPeer, ReliableLinks::kRxWindow), Rx::kAccept);
  // Move the edge to 1024, then test the bound again from there.
  for (std::uint64_t s = 1; s < ReliableLinks::kRxWindow; ++s) {
    ASSERT_EQ(links.receive(kPeer, s), Rx::kAccept) << s;
  }
  EXPECT_EQ(links.take_ack(kPeer).seq, 1024u);
  EXPECT_EQ(links.receive(kPeer, 1024 + 1025), Rx::kBeyondWindow);
  EXPECT_EQ(links.receive(kPeer, 1024 + 1024), Rx::kAccept);
  EXPECT_EQ(links.receive(kPeer, 1024 + 1024), Rx::kDuplicate);
}

TEST(ReliableLinks, RandomArrivalsMatchAReferenceAcrossWordAndRingWraps) {
  // Arrivals run ~5 ring wraps deep, reordered within a sliding block that
  // straddles 64-bit word boundaries, with duplicates and stale repeats.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Xoshiro256 rng(seed);
    ReliableLinks links(2);
    std::set<std::uint64_t> got;
    std::uint64_t cumulative = 0;
    std::vector<std::uint64_t> arrivals;
    for (std::uint64_t base = 1; base <= 5000; base += 100) {
      std::vector<std::uint64_t> block;
      for (std::uint64_t s = base; s < base + 100; ++s) block.push_back(s);
      for (std::size_t i = block.size(); i > 1; --i) {
        std::swap(block[i - 1], block[rng.below(i)]);
      }
      for (std::uint64_t s : block) {
        arrivals.push_back(s);
        if (rng.below(8) == 0) {
          arrivals.push_back(s - rng.below(std::min<std::uint64_t>(s, 200)));
        }
      }
    }
    for (std::uint64_t s : arrivals) {
      if (s == 0) continue;
      const Rx expect = s <= cumulative || got.count(s) != 0 ? Rx::kDuplicate : Rx::kAccept;
      ASSERT_EQ(links.receive(kPeer, s), expect) << "seed " << seed << " seq " << s;
      got.insert(s);
      while (got.count(cumulative + 1) != 0) ++cumulative;
      const fabric::Segment ack = links.take_ack(kPeer);
      ASSERT_EQ(ack.seq, cumulative) << "seed " << seed << " seq " << s;
      for (unsigned i = 0; i < 64; ++i) {
        ASSERT_EQ((ack.offset >> i) & 1, got.count(cumulative + 1 + i))
            << s << " bit " << i;
      }
    }
    EXPECT_EQ(cumulative, 5000u);
  }
}

TEST(ReliableLinks, DuplicatesAreCaughtAfterTheRingWraps) {
  ReliableLinks links(2);
  for (std::uint64_t s = 1; s <= 3 * ReliableLinks::kRxWindow + 10; ++s) {
    ASSERT_EQ(links.receive(kPeer, s), Rx::kAccept);
  }
  const std::uint64_t edge = 3 * ReliableLinks::kRxWindow + 10;
  EXPECT_EQ(links.receive(kPeer, edge), Rx::kDuplicate);
  EXPECT_EQ(links.receive(kPeer, 5), Rx::kDuplicate);
  // Above the edge, in a bit slot an older seq used one wrap earlier.
  const std::uint64_t ahead = edge + 7;
  EXPECT_EQ(links.receive(kPeer, ahead), Rx::kAccept);
  EXPECT_EQ(links.receive(kPeer, ahead), Rx::kDuplicate);
  EXPECT_EQ(links.receive(kPeer, ahead - 1), Rx::kAccept);  // not a false duplicate
  EXPECT_EQ(links.take_ack(kPeer).seq, edge);
}

TEST(ReliableLinks, RingGrowthKeepsEveryLiveEntryFindable) {
  ReliableLinks links(2);
  std::vector<std::uint64_t> seqs;
  for (std::uint64_t m = 0; m < 300; ++m) seqs.push_back(stash(links, m, m % 5));
  EXPECT_EQ(links.live(), 300u);
  for (std::uint64_t m = 0; m < 300; ++m) {
    const RelTxEntry* e = links.find(kPeer, seqs[m]);
    ASSERT_NE(e, nullptr) << m;
    EXPECT_EQ(e->msg_id, m);
    EXPECT_EQ(e->payload.size(), m % 5);
    if (m % 2 == 1) links.release(*links.find(kPeer, seqs[m]));
  }
  for (std::uint64_t m = 300; m < 900; ++m) seqs.push_back(stash(links, m));
  EXPECT_EQ(links.live(), 150u + 600u);
  for (std::uint64_t m = 0; m < 900; ++m) {
    const RelTxEntry* e = links.find(kPeer, seqs[m]);
    if (m < 300 && m % 2 == 1) {
      EXPECT_EQ(e, nullptr) << m;
    } else {
      ASSERT_NE(e, nullptr) << m;
      EXPECT_EQ(e->msg_id, m);
    }
  }
}

TEST(ReliableLinks, RebuiltSegmentChecksumsAsTheOriginal) {
  ReliableLinks links(2);
  fabric::Segment seg{.kind = fabric::SegKind::kEager, .src = 0, .dst = kPeer,
                      .msg_id = 9, .tag = 4, .total_len = 3, .attempt = 2};
  seg.payload.push_back(1);
  seg.payload.push_back(2);
  seg.payload.push_back(3);
  const RelTxEntry& e = links.stash(seg, 0);
  EXPECT_EQ(seg.seq, 1u);
  EXPECT_EQ(seg.crc, reliable_crc(seg));
  fabric::Segment again = e.segment();
  again.src = seg.src;  // the post stamps the source
  EXPECT_EQ(again.seq, seg.seq);
  EXPECT_EQ(again.attempt, seg.attempt);
  EXPECT_EQ(reliable_crc(again), seg.crc);
  EXPECT_EQ(again.crc, seg.crc);
}

TEST(ReliableLinks, SelectiveAckRetiresExactlyTheReceivedSeqs) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Xoshiro256 rng(seed);
    ReliableLinks sender(2);    // node 0, sending to kPeer
    ReliableLinks receiver(2);  // node kPeer, receiving from 0
    std::vector<std::uint64_t> seqs;
    for (std::uint64_t m = 0; m < 120; ++m) seqs.push_back(stash(sender, m));
    std::set<std::uint64_t> received;
    for (std::uint64_t s : seqs) {
      // A received prefix of random length, then random gaps.
      if (s <= rng.below(20) || rng.below(3) != 0) {
        receiver.receive(0, s);
        received.insert(s);
      }
    }
    const fabric::Segment ack = receiver.take_ack(0);
    std::set<std::uint64_t> expect;
    for (std::uint64_t s : received) {
      if (s <= ack.seq + 64) expect.insert(s);
    }
    std::set<std::uint64_t> retired;
    sender.acknowledge(kPeer, ack, [&](const RelTxEntry& e) { retired.insert(e.seq); });
    EXPECT_EQ(retired, expect) << "seed " << seed;
    for (std::uint64_t s : seqs) {
      EXPECT_EQ(sender.find(kPeer, s) == nullptr, expect.count(s) == 1) << s;
    }
    EXPECT_EQ(sender.live(), seqs.size() - expect.size());
    // A stale repeat of the same ACK retires nothing more.
    sender.acknowledge(kPeer, ack,
                       [](const RelTxEntry&) { ADD_FAILURE() << "retired twice"; });
  }
}

TEST(ReliableLinks, AckArmsOncePerFlush) {
  ReliableLinks links(2);
  EXPECT_TRUE(links.arm_ack(kPeer));
  EXPECT_FALSE(links.arm_ack(kPeer));
  const fabric::Segment ack = links.take_ack(kPeer);
  EXPECT_EQ(ack.kind, fabric::SegKind::kAck);
  EXPECT_EQ(ack.dst, kPeer);
  EXPECT_TRUE(links.arm_ack(kPeer));
}

}  // namespace
}  // namespace rails::core
