// Worker pool with per-worker tasklet queues (Marcel analogue).
//
// The pool mirrors what the engine needs from Marcel:
//  * submit work to a *specific* core ("idle cores are signaled that some
//    requests need to be sent", §III-D) with a measurable signalling cost;
//  * tasklet priority — a worker drains its tasklet queue before taking
//    ordinary work.
//
// It measures this host's real TO (bench/micro_offload_cost,
// examples/multicore_eager); the engine itself charges the modelled TO on
// the virtual clock.
//
// Following CP.42, idle workers block on a condition variable (no spinning);
// the signalling cost measured by calibrate_signal_cost() therefore includes
// a real wakeup, which is exactly the TO the paper measures at 3–6 µs.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "rt/tasklet.hpp"

namespace rails::rt {

class WorkerPool {
 public:
  explicit WorkerPool(unsigned worker_count);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  unsigned worker_count() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueues onto a specific worker and wakes it.
  void submit_to(unsigned worker, Tasklet tasklet);

  /// Blocks until every queued tasklet has run.
  void drain();

  /// Measures the host's real strategy-to-remote-core signalling cost: the
  /// median round trip of submit_to(worker, no-op) / completion-flag wait,
  /// halved. This is the empirical TO of §III-D.
  double calibrate_signal_cost_us(unsigned round_trips = 64);

 private:
  struct Worker {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Tasklet> tasklets;  ///< TaskPriority::kTasklet
    std::deque<Tasklet> normal;    ///< TaskPriority::kNormal
    std::thread thread;
  };

  void run_worker(unsigned index);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> pending_{0};
};

}  // namespace rails::rt
