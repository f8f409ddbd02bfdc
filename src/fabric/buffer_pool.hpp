// Recycling pool for owned segment payload storage.
//
// Eager segments carry their bytes in owned Payload storage; without
// pooling that is one heap allocation per segment on the hot path. Storage
// comes back either when the receiver recycles its segment or, once shared
// (Payload::share: a reliable segment and its parked retransmit bytes),
// when the last reference drops, usually at the ACK. A copy-on-write of a
// view draws its private copy from here too, and so does a reliable DMA
// chunk's parked entry that outlives its send. Each caller asks for the
// capacity it needs and gets the best fit among the last few buffers, so
// a small buffer pooled last does not hide a large one, and an eager
// segment does not take the large buffer a copy-on-write will want next.
// Rendezvous DMA chunks borrow the sender's buffer instead
// (fabric/payload.hpp). The pool is process-wide (segments migrate between
// sender and receiver engines inside one process) and bounded both in
// buffers and in bytes, and it is an immortal leaked singleton for the
// same reason as RequestPool: segments may outlive any engine. See
// docs/PERF.md.
#pragma once

#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "fabric/payload.hpp"

namespace rails::fabric {

class BufferPool {
 public:
  /// Caps on what the pool retains. Far above any workload's working set
  /// (mixed_reliable's whole process peaks near 8 MB); they only stop a
  /// burst of huge buffers from being kept forever.
  static constexpr std::size_t kMaxPooled = 1024;
  static constexpr std::size_t kMaxPooledBytes = std::size_t{64} << 20;

  static BufferPool& instance() {
    static BufferPool* pool = new BufferPool();
    return *pool;
  }

  /// How many of the most recently pooled buffers acquire() searches.
  static constexpr std::size_t kFitScan = 8;

  /// An empty owned payload for `wanted` bytes: the smallest buffer at
  /// least that large among the kFitScan most recently pooled (the most
  /// recent of equals), else the most recently pooled one, which then
  /// grows.
  Payload acquire(std::size_t wanted) {
    std::lock_guard<std::mutex> lock(mu_);
    if (pool_.empty()) return {};
    auto pick = pool_.end() - 1;
    const auto stop = pool_.size() > kFitScan ? pool_.end() - kFitScan : pool_.begin();
    for (auto it = pool_.end(); it != stop;) {
      --it;
      if (it->capacity() >= wanted &&
          (pick->capacity() < wanted || it->capacity() < pick->capacity())) {
        pick = it;
      }
    }
    Payload buf = std::move(*pick);
    pool_.erase(pick);
    pooled_bytes_ -= buf.capacity();
    return buf;
  }

  /// Returns a payload's storage to the pool (cleared, capacity kept). A
  /// view just drops its pin reference (the last one to a shared payload
  /// comes back here with the storage). Storage past either bound
  /// is simply freed — the pool caps retained memory, it does not
  /// guarantee recycling.
  void release(Payload&& buf) {
    buf.clear();
    if (buf.capacity() == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (pool_.size() < kMaxPooled && pooled_bytes_ + buf.capacity() <= kMaxPooledBytes) {
      pooled_bytes_ += buf.capacity();
      pool_.push_back(std::move(buf));
    }
  }

  std::size_t pooled() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pool_.size();
  }
  /// Total capacity of the pooled buffers.
  std::size_t pooled_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pooled_bytes_;
  }

 private:
  BufferPool() = default;

  mutable std::mutex mu_;
  std::vector<Payload> pool_;
  std::size_t pooled_bytes_ = 0;
};

inline Payload acquire_payload(std::size_t wanted) {
  return BufferPool::instance().acquire(wanted);
}
inline void recycle_payload(Payload&& buf) {
  BufferPool::instance().release(std::move(buf));
}

}  // namespace rails::fabric
