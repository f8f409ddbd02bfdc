#include "rt/worker_pool.hpp"

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace rails::rt {
namespace {

TEST(WorkerPool, RunsSubmittedWork) {
  WorkerPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit_to(i % pool.worker_count(),
                   Tasklet([&] { counter.fetch_add(1); }, TaskPriority::kNormal));
  }
  pool.drain();
  EXPECT_EQ(counter.load(), 100);
}

TEST(WorkerPool, SubmitToTargetsSpecificWorker) {
  WorkerPool pool(3);
  std::atomic<int> ran_on{-1};
  std::atomic<bool> done{false};
  pool.submit_to(2, Tasklet(
                        [&] {
                          ran_on.store(2);
                          done.store(true);
                        },
                        TaskPriority::kTasklet));
  while (!done.load()) std::this_thread::yield();
  EXPECT_EQ(ran_on.load(), 2);
}

TEST(WorkerPool, SameWorkerPreservesFifoWithinPriority) {
  WorkerPool pool(1);
  std::vector<int> order;
  std::mutex m;
  for (int i = 0; i < 50; ++i) {
    pool.submit_to(0, Tasklet(
                          [&, i] {
                            std::lock_guard<std::mutex> lock(m);
                            order.push_back(i);
                          },
                          TaskPriority::kNormal));
  }
  pool.drain();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(WorkerPool, TaskletsJumpAheadOfNormalWork) {
  WorkerPool pool(1);
  std::vector<int> order;
  std::mutex m;
  std::atomic<bool> gate{false};

  // Occupy the single worker so the queue builds behind it.
  pool.submit_to(0, Tasklet(
                        [&] {
                          while (!gate.load()) std::this_thread::yield();
                        },
                        TaskPriority::kNormal));
  for (int i = 0; i < 3; ++i) {
    pool.submit_to(0, Tasklet(
                          [&, i] {
                            std::lock_guard<std::mutex> lock(m);
                            order.push_back(i);
                          },
                          TaskPriority::kNormal));
  }
  pool.submit_to(0, Tasklet(
                        [&] {
                          std::lock_guard<std::mutex> lock(m);
                          order.push_back(99);
                        },
                        TaskPriority::kTasklet));
  gate.store(true);
  pool.drain();
  ASSERT_EQ(order.size(), 4u);
  // The tasklet was submitted last but runs first.
  EXPECT_EQ(order[0], 99);
  EXPECT_EQ(order[1], 0);
}

TEST(WorkerPool, SignalCostCalibrationIsPlausible) {
  WorkerPool pool(2);
  const double to_us = pool.calibrate_signal_cost_us(32);
  // The paper measured 3 µs on 2008 Opterons; on any sane host the condvar
  // round trip lands between 0.05 µs and 5 ms.
  EXPECT_GT(to_us, 0.01);
  EXPECT_LT(to_us, 5000.0);
}

TEST(WorkerPool, ManyWorkersStress) {
  WorkerPool pool(4);
  std::atomic<long long> sum{0};
  constexpr int kCount = 5000;
  for (int i = 0; i < kCount; ++i) {
    pool.submit_to(i % pool.worker_count(),
                   Tasklet([&sum, i] { sum.fetch_add(i); },
                           i % 2 == 0 ? TaskPriority::kTasklet : TaskPriority::kNormal));
  }
  pool.drain();
  EXPECT_EQ(sum.load(), static_cast<long long>(kCount) * (kCount - 1) / 2);
}

TEST(WorkerPool, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    WorkerPool pool(2);
    for (int i = 0; i < 10; ++i) {
      pool.submit_to(i % pool.worker_count(),
                     Tasklet([&] { counter.fetch_add(1); }, TaskPriority::kNormal));
    }
    pool.drain();
  }
  EXPECT_EQ(counter.load(), 10);
}

}  // namespace
}  // namespace rails::rt
