#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/spsc_queue.hpp"

namespace rails {
namespace {

TEST(SpscQueue, PushPopSingleThread) {
  SpscQueue<int> q(8);
  EXPECT_TRUE(q.empty());
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_EQ(q.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(SpscQueue, FullRejectsPush) {
  SpscQueue<int> q(4);  // capacity rounds to 4, holds 3
  int pushed = 0;
  while (q.try_push(pushed)) ++pushed;
  EXPECT_EQ(pushed, static_cast<int>(q.capacity()));
  EXPECT_FALSE(q.try_push(99));
  EXPECT_TRUE(q.try_pop().has_value());
  EXPECT_TRUE(q.try_push(99));
}

TEST(SpscQueue, CapacityRoundsToPowerOfTwo) {
  SpscQueue<int> q(5);
  EXPECT_EQ(q.capacity(), 7u);  // ring of 8, one slot sacrificed
}

TEST(SpscQueue, WrapAroundPreservesOrder) {
  SpscQueue<int> q(4);
  int next_push = 0;
  int next_pop = 0;
  for (int round = 0; round < 100; ++round) {
    while (q.try_push(next_push)) ++next_push;
    auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, next_pop++);
  }
}

TEST(SpscQueue, TwoThreadStress) {
  SpscQueue<std::uint64_t> q(1024);
  constexpr std::uint64_t kCount = 200'000;
  std::atomic<bool> fail{false};

  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kCount; ++i) {
      while (!q.try_push(i)) std::this_thread::yield();
    }
  });
  std::uint64_t expected = 0;
  while (expected < kCount) {
    auto v = q.try_pop();
    if (!v) {
      std::this_thread::yield();
      continue;
    }
    if (*v != expected) {
      fail.store(true);
      break;
    }
    ++expected;
  }
  producer.join();
  EXPECT_FALSE(fail.load()) << "out-of-order or corrupted element";
  EXPECT_EQ(expected, kCount);
}

TEST(SpscQueue, MoveOnlyElements) {
  SpscQueue<std::unique_ptr<int>> q(8);
  EXPECT_TRUE(q.try_push(std::make_unique<int>(7)));
  auto v = q.try_pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 7);
}

TEST(SpscQueue, FailedPushDoesNotConsumeTheValue) {
  // Regression: a retry loop `while (!q.try_push(std::move(x)))` must not
  // lose x's contents when the ring is momentarily full.
  SpscQueue<std::vector<int>> q(2);  // capacity 1
  ASSERT_TRUE(q.try_push(std::vector<int>{1}));
  std::vector<int> payload = {4, 5, 6};
  ASSERT_FALSE(q.try_push(std::move(payload)));
  EXPECT_EQ(payload, (std::vector<int>{4, 5, 6})) << "value consumed on failure";
  ASSERT_TRUE(q.try_pop().has_value());
  ASSERT_TRUE(q.try_push(std::move(payload)));
  auto v = q.try_pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, (std::vector<int>{4, 5, 6}));
}

}  // namespace
}  // namespace rails
