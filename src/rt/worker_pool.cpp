#include "rt/worker_pool.hpp"

#include <chrono>

#include "common/check.hpp"
#include "common/stats.hpp"

namespace rails::rt {

WorkerPool::WorkerPool(unsigned worker_count) {
  RAILS_CHECK(worker_count >= 1);
  workers_.reserve(worker_count);
  for (unsigned i = 0; i < worker_count; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (unsigned i = 0; i < worker_count; ++i) {
    workers_[i]->thread = std::thread([this, i] { run_worker(i); });
  }
}

WorkerPool::~WorkerPool() {
  stopping_.store(true, std::memory_order_release);
  for (auto& w : workers_) {
    std::lock_guard<std::mutex> lock(w->mutex);
    w->cv.notify_all();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void WorkerPool::submit_to(unsigned worker, Tasklet tasklet) {
  RAILS_CHECK(worker < workers_.size());
  RAILS_CHECK(tasklet.fn != nullptr);
  Worker& w = *workers_[worker];
  pending_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(w.mutex);
    if (tasklet.priority == TaskPriority::kTasklet) {
      w.tasklets.push_back(std::move(tasklet));
    } else {
      w.normal.push_back(std::move(tasklet));
    }
  }
  w.cv.notify_one();
}

void WorkerPool::drain() {
  while (pending_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
}

void WorkerPool::run_worker(unsigned index) {
  Worker& w = *workers_[index];
  std::unique_lock<std::mutex> lock(w.mutex);
  while (true) {
    // Tasklets first — they carry I/O progression and offloaded PIO
    // submissions and must not sit behind bulk work.
    if (!w.tasklets.empty() || !w.normal.empty()) {
      auto& queue = !w.tasklets.empty() ? w.tasklets : w.normal;
      Tasklet t = std::move(queue.front());
      queue.pop_front();
      lock.unlock();
      t.fn();
      pending_.fetch_sub(1, std::memory_order_release);
      lock.lock();
      continue;
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    w.cv.wait(lock, [&] {
      return stopping_.load(std::memory_order_acquire) || !w.tasklets.empty() ||
             !w.normal.empty();
    });
  }
}

double WorkerPool::calibrate_signal_cost_us(unsigned round_trips) {
  RAILS_CHECK(round_trips >= 1);
  RAILS_CHECK(worker_count() >= 1);
  SampleSet samples;
  for (unsigned i = 0; i < round_trips; ++i) {
    std::atomic<bool> done{false};
    const auto start = std::chrono::steady_clock::now();
    submit_to(0, Tasklet([&done] { done.store(true, std::memory_order_release); },
                         TaskPriority::kTasklet));
    while (!done.load(std::memory_order_acquire)) {
      // Busy-wait: the measurement targets the signalling latency itself.
    }
    const auto end = std::chrono::steady_clock::now();
    samples.add(std::chrono::duration<double, std::micro>(end - start).count() / 2.0);
  }
  return samples.median();
}

}  // namespace rails::rt
