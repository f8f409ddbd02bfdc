// PackList on its own, with no World: the per-destination FIFOs and the
// ready order must visit groups exactly as one flat pack list scanned from
// the front would.
#include "core/pack_list.hpp"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace rails::core {
namespace {

constexpr std::size_t kNodes = 9;

SendHandle make_send(NodeId dst, std::uint64_t id) {
  SendHandle send = make_send_request();
  send->id = id;
  send->dst = dst;
  send->len = 1 + id % 7;
  return send;
}

/// The flat-list reference: every queued send in pack-list order. A scan
/// meets destinations in order of their oldest queued send, and each
/// group holds that destination's sends in list order.
std::vector<std::vector<const SendRequest*>> flat_groups(
    const std::vector<SendHandle>& flat) {
  std::vector<std::vector<const SendRequest*>> groups;
  std::vector<NodeId> order;
  for (const SendHandle& s : flat) {
    const auto at = std::find(order.begin(), order.end(), s->dst);
    if (at == order.end()) {
      order.push_back(s->dst);
      groups.push_back({s.get()});
    } else {
      groups[at - order.begin()].push_back(s.get());
    }
  }
  return groups;
}

/// One seeded run of random pushes and plan walks. Each plan posts a random
/// subset of its group (each send whole) and blocks with some probability.
/// Returns the number of groups visited.
std::size_t run_sequence(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  PackList list(kNodes);
  std::vector<SendHandle> flat;
  std::uint64_t next_id = 1;
  std::size_t visited = 0;
  const int ops = static_cast<int>(rng.range(5, 60));
  for (int op = 0; op < ops; ++op) {
    if (rng.below(3) != 0) {
      // Bursts to few destinations make groups of several sends.
      const std::uint64_t burst = rng.range(1, 4);
      for (std::uint64_t i = 0; i < burst; ++i) {
        flat.push_back(make_send(static_cast<NodeId>(rng.below(kNodes)), next_id++));
        list.push(flat.back());
      }
    } else {
      const auto expected = flat_groups(flat);
      std::size_t g = 0;
      list.plan_groups([&](std::span<const SendRequest* const> group) {
        EXPECT_LT(g, expected.size()) << "seed " << seed;
        if (g >= expected.size()) return true;
        EXPECT_EQ(std::vector<const SendRequest*>(group.begin(), group.end()), expected[g])
            << "seed " << seed << " group " << g;
        ++g;
        for (const SendRequest* s : group) {
          if (rng.below(2) == 0) const_cast<SendRequest*>(s)->bytes_posted = s->len;
        }
        return rng.below(4) == 0;
      });
      visited += g;
      std::erase_if(flat, [](const SendHandle& s) { return s->bytes_posted == s->len; });
    }
    EXPECT_EQ(list.size(), flat.size()) << "seed " << seed;
  }
  return visited;
}

TEST(PackList, RandomSequencesVisitGroupsInFlatListOrder) {
  std::size_t visited = 0;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    visited += run_sequence(seed);
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GT(visited, 10'000u);  // the walks did visit groups
}

TEST(PackList, PartlyPostedGroupFallsBehindOlderDestinations) {
  PackList list(kNodes);
  std::vector<SendHandle> sends{make_send(1, 1), make_send(2, 2), make_send(1, 3)};
  for (const SendHandle& s : sends) list.push(s);
  // The first walk plans only destination 1 and posts its oldest send.
  list.plan_groups([&](std::span<const SendRequest* const> group) {
    EXPECT_EQ(group.size(), 2u);
    sends[0]->bytes_posted = sends[0]->len;
    return true;
  });
  // Destination 1's oldest send is now #3, behind destination 2's #2.
  std::vector<NodeId> order;
  list.plan_groups([&](std::span<const SendRequest* const> group) {
    order.push_back(group.front()->dst);
    return false;
  });
  EXPECT_EQ(order, (std::vector<NodeId>{2, 1}));
  EXPECT_EQ(list.size(), 2u);
}

TEST(PackList, PostedSlotsAreReused) {
  PackList list(kNodes);
  for (std::uint64_t round = 0; round < 3; ++round) {
    SendHandle s = make_send(3, round + 1);
    list.push(s);
    EXPECT_FALSE(list.empty());
    list.plan_groups([&](std::span<const SendRequest* const> group) {
      EXPECT_EQ(group.size(), 1u);
      s->bytes_posted = s->len;
      return false;
    });
    EXPECT_TRUE(list.empty());
  }
}

TEST(PackListDeath, PartlyPostedSendAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        PackList list(kNodes);
        SendHandle s = make_send(1, 6);  // len 7
        list.push(s);
        list.plan_groups([&](std::span<const SendRequest* const>) {
          s->bytes_posted = 1;
          return false;
        });
      },
      "partially posted");
}

}  // namespace
}  // namespace rails::core
