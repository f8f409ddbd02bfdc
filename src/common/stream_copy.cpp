#include "common/stream_copy.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <system_error>
#include <thread>

#if defined(__x86_64__)
#include <immintrin.h>
#endif
#if defined(__linux__)
#include <sched.h>
#endif

#include "common/check.hpp"

namespace rails {

#if defined(__x86_64__)

namespace {

/// Bytes to copy before `dst` reaches `align`-byte alignment (at most `n`).
std::size_t head_bytes(const std::uint8_t* dst, std::size_t align, std::size_t n) {
  const std::size_t mis = reinterpret_cast<std::uintptr_t>(dst) & (align - 1);
  return std::min(n, mis == 0 ? 0 : align - mis);
}

}  // namespace

// Both bodies: memcpy the head up to vector alignment, stream four vectors
// per iteration (one vector at a time for the last few), memcpy the tail.

void detail::stream_copy_sse2(void* dst, const void* src, std::size_t n) {
  auto* d = static_cast<std::uint8_t*>(dst);
  const auto* s = static_cast<const std::uint8_t*>(src);
  const std::size_t head = head_bytes(d, 16, n);
  std::memcpy(d, s, head);
  n -= head;
  auto* out = reinterpret_cast<__m128i*>(d + head);
  const auto* in = reinterpret_cast<const __m128i*>(s + head);
  for (; n >= 64; out += 4, in += 4, n -= 64) {
    const __m128i a = _mm_loadu_si128(in), b = _mm_loadu_si128(in + 1);
    const __m128i c = _mm_loadu_si128(in + 2), e = _mm_loadu_si128(in + 3);
    _mm_stream_si128(out, a);
    _mm_stream_si128(out + 1, b);
    _mm_stream_si128(out + 2, c);
    _mm_stream_si128(out + 3, e);
  }
  for (; n >= 16; ++out, ++in, n -= 16) _mm_stream_si128(out, _mm_loadu_si128(in));
  std::memcpy(out, in, n);
  _mm_sfence();
}

__attribute__((target("avx512f"))) void detail::stream_copy_avx512(void* dst, const void* src,
                                                                   std::size_t n) {
  auto* d = static_cast<std::uint8_t*>(dst);
  const auto* s = static_cast<const std::uint8_t*>(src);
  const std::size_t head = head_bytes(d, 64, n);
  std::memcpy(d, s, head);
  n -= head;
  auto* out = reinterpret_cast<__m512i*>(d + head);
  const auto* in = reinterpret_cast<const __m512i*>(s + head);
  for (; n >= 256; out += 4, in += 4, n -= 256) {
    const __m512i a = _mm512_loadu_si512(in), b = _mm512_loadu_si512(in + 1);
    const __m512i c = _mm512_loadu_si512(in + 2), e = _mm512_loadu_si512(in + 3);
    _mm512_stream_si512(out, a);
    _mm512_stream_si512(out + 1, b);
    _mm512_stream_si512(out + 2, c);
    _mm512_stream_si512(out + 3, e);
  }
  for (; n >= 64; ++out, ++in, n -= 64) _mm512_stream_si512(out, _mm512_loadu_si512(in));
  std::memcpy(out, in, n);
  _mm_sfence();
}

bool detail::stream_copy_has_avx512() {
  static const bool kHas = __builtin_cpu_supports("avx512f");
  return kHas;
}

void stream_copy(void* dst, const void* src, std::size_t n) {
  if (detail::stream_copy_has_avx512()) {
    detail::stream_copy_avx512(dst, src, n);
  } else {
    detail::stream_copy_sse2(dst, src, n);
  }
}

#else

void stream_copy(void* dst, const void* src, std::size_t n) { std::memcpy(dst, src, n); }

#endif

namespace {

struct Slice {
  std::uint8_t* dst = nullptr;
  const std::uint8_t* src = nullptr;
  std::size_t n = 0;
};

void copy_slice(const Slice& s) { stream_copy(s.dst, s.src, s.n); }

/// Polls `done` for 15 us: long enough to catch the next chunk of a burst
/// or a join that is nearly done without a sleep and a wake-up, short
/// enough that an idle helper soon gives its core back. Spinning for 50 us
/// placed no faster on bulk_split and took 6-18% more CPU time.
template <typename Pred>
bool spin_until(Pred done) {
  constexpr auto kSpin = std::chrono::microseconds(15);
  const auto until = std::chrono::steady_clock::now() + kSpin;
  for (;;) {
    for (int i = 0; i < 64; ++i) {
      if (done()) return true;
#if defined(__x86_64__)
      _mm_pause();
#endif
    }
    if (std::chrono::steady_clock::now() >= until) return done();
  }
}

/// The helper threads. Immortal (leaked, like BufferPool): a helper is
/// never joined, so nothing it uses may ever be destroyed.
///
/// A copy's slices are claimed, not assigned: the caller takes slice 0,
/// then every thread, the caller included, claims the next unclaimed
/// slice until none is left. A helper that wakes late, or whose core is
/// busy, leaves its slice to the caller, so a split copy never waits for
/// more than the slices already being copied.
class Crew {
 public:
  /// The crew, started on the first call; nullptr without helpers.
  static Crew* get() {
    static Crew* crew = detail::stream_copy_helpers() > 0 ? new Crew() : nullptr;
    return crew;
  }

  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  /// Copies every slice with the helpers' help. Returns false, copying
  /// nothing, when another thread's copy holds the crew.
  bool run(const Slice* slices, unsigned count) {
    std::unique_lock<std::mutex> turn(turn_mu_, std::try_to_lock);
    if (!turn.owns_lock()) return false;
    const std::uint64_t gen = generation(work_.load(std::memory_order_relaxed)) + 1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      std::copy(slices, slices + count, job_.begin());
      pending_.store(count, std::memory_order_relaxed);
      work_.store(gen << 16 | std::uint64_t{count} << 8 | 1, std::memory_order_release);
    }
    work_cv_.notify_all();
    copy_slice(job_[0]);
    finish_slice();
    for (const Slice* slice; (slice = claim(gen)) != nullptr; finish_slice()) {
      copy_slice(*slice);
    }
    const auto joined = [this] { return pending_.load(std::memory_order_acquire) == 0; };
    if (!spin_until(joined)) {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, joined);
    }
    return true;
  }

 private:
  // work_ packs the current copy: its generation (bits 16 up), its slice
  // count (bits 8-15) and the next unclaimed slice (bits 0-7). One word,
  // so a claim can never take a slice of a copy other than the one whose
  // generation it read.
  static std::uint64_t generation(std::uint64_t work) { return work >> 16; }

  Crew() {
    for (unsigned i = 0; i < detail::stream_copy_helpers(); ++i) {
      try {
        threads_[i] = std::thread([this] { serve(); });
      } catch (const std::system_error&) {
        break;  // fewer helpers: the callers claim their slices
      }
    }
  }

  /// The next unclaimed slice of copy `gen`, or nullptr when none is left.
  /// job_ stays as it is until every claimed slice is finished.
  const Slice* claim(std::uint64_t gen) {
    std::uint64_t work = work_.load(std::memory_order_acquire);
    do {
      const std::uint64_t next = work & 0xff, count = (work >> 8) & 0xff;
      if (generation(work) != gen || next >= count) return nullptr;
    } while (!work_.compare_exchange_weak(work, work + 1, std::memory_order_acq_rel,
                                          std::memory_order_acquire));
    return &job_[work & 0xff];
  }

  /// Counts a slice copied (each ends with sfence: its bytes precede this).
  void finish_slice() {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) done_cv_.notify_one();
  }

  [[noreturn]] void serve() {
    std::uint64_t seen = 0;
    const auto posted = [&] {
      return generation(work_.load(std::memory_order_acquire)) != seen;
    };
    for (;;) {
      if (!spin_until(posted)) {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, posted);
      }
      seen = generation(work_.load(std::memory_order_acquire));
      for (const Slice* slice; (slice = claim(seen)) != nullptr; finish_slice()) {
        copy_slice(*slice);
      }
    }
  }

  std::mutex turn_mu_;  // one split copy at a time
  std::mutex mu_;       // job_ and pending_ change under it; the waits use it
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::array<Slice, kMaxPlaceParts> job_;
  std::atomic<std::uint64_t> work_{0};
  std::atomic<unsigned> pending_{0};  // slices not yet copied
  std::array<std::thread, kMaxPlaceParts - 1> threads_;  // last: they use the members above
};

}  // namespace

unsigned detail::stream_copy_helpers() {
  static const unsigned kHelpers = [] {
    unsigned cpus = 1;
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      cpus = static_cast<unsigned>(std::max(CPU_COUNT(&set), 1));
    }
#endif
    return std::min(cpus, kMaxPlaceParts) - 1;
  }();
  return kHelpers;
}

void detail::stream_copy_parts(void* dst, const void* src, std::size_t n, unsigned parts) {
  RAILS_CHECK(parts >= 1 && parts <= kMaxPlaceParts);
  auto* d = static_cast<std::uint8_t*>(dst);
  const auto* s = static_cast<const std::uint8_t*>(src);
  // Slice k ends at the first 64-byte boundary of the destination at or
  // after k+1 parts' share of the bytes.
  const auto base = reinterpret_cast<std::uintptr_t>(d);
  std::array<Slice, kMaxPlaceParts> slices;
  std::size_t begin = 0;
  for (unsigned k = 0; k < parts; ++k) {
    std::size_t end = n;
    if (k + 1 < parts) {
      const std::uintptr_t cut = (base + n / parts * (k + 1) + 63) & ~std::uintptr_t{63};
      end = std::clamp<std::size_t>(cut - base, begin, n);
    }
    slices[k] = {d + begin, s + begin, end - begin};
    begin = end;
  }
  Crew* crew = parts > 1 ? Crew::get() : nullptr;
  if (crew != nullptr && crew->run(slices.data(), parts)) return;
  for (unsigned k = 0; k < parts; ++k) copy_slice(slices[k]);
}

void stream_copy_split(void* dst, const void* src, std::size_t n) {
  const unsigned parts = n >= kSplitCopyMin ? detail::stream_copy_helpers() + 1 : 1;
  detail::stream_copy_parts(dst, src, n, parts);
}

}  // namespace rails
