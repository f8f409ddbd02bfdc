// Bulk payload placement with non-temporal (streaming) stores.
//
// A rendezvous DATA chunk lands in the receiver's posted buffer the way a
// NIC's DMA write would: the bytes go to memory without first pulling every
// destination line into the cache. An ordinary memcpy into a line that is
// not cached pays a read-for-ownership per line it writes; a streaming store
// does not. Into a line that is already in L1 or L2, though, memcpy runs up
// to 2.5 times as fast as streaming (docs/PERF.md, "Payload placement").
//
// Whether the destination is cached is not observed, so the engine streams
// by the size of the receive buffer: from kStreamCopyThreshold on, a buffer
// cannot stay in a core's L2 while it is written (a sequential write
// through it evicts its own head). Smaller buffers, which an application
// that reuses them keeps warm, and eager fragments keep memcpy.
//
// On x86-64 stream_copy copies a head with memcpy up to vector alignment,
// streams the body, copies the tail with memcpy, and issues sfence before
// it returns, so the bytes are ordered before any later store that
// publishes them. The body uses AVX-512F when the CPU has it (checked
// once): with a source that is not cached either, as a send buffer
// usually is not, its full-line loads and stores copy faster than SSE2,
// in the paired railbench runs and in a kernel comparison alike
// (docs/PERF.md, "Payload placement"). Otherwise it uses SSE2, which
// every x86-64 CPU has. Elsewhere stream_copy is memcpy. There is no knob.
//
// One core streaming into memory reaches a fraction of the memory's write
// bandwidth, so stream_copy_split spreads a copy of kSplitCopyMin bytes or
// more over up to kMaxPlaceParts cores: the paper's multicore offload,
// applied to the bytes of a chunk. It cuts the copy into one slice per
// core at 64-byte boundaries of the destination (no cache line is written
// by two cores) and wakes the helper threads. The caller copies the first
// slice, then every thread, the caller too, claims the next unclaimed
// slice, so a helper that wakes late leaves its slice to the caller
// instead of holding it up. It returns when every slice is done: to its
// caller it is one copy. A copy under 1 MiB stays on one core, where the
// helpers' wake-up and join weigh most against the copy (docs/PERF.md,
// "Multicore placement"). There are min(CPUs the process may run on,
// kMaxPlaceParts) - 1 helpers, worked out from the affinity mask; with one
// CPU there are none and the split copy is stream_copy. The helpers start
// on the first copy that splits and live for the process. They touch only
// the bytes they are given: no allocation, no perf scope, no engine
// state. Between copies a helper spins for 15 us, then blocks. A second
// thread that splits while the helpers are busy copies on its own.
#pragma once

#include <cstddef>

namespace rails {

/// Receive buffers of at least this many bytes are placed with stream_copy:
/// 2 MiB, the L2 of one core on the measured Xeon and no less than the L2
/// of common x86-64 server cores.
inline constexpr std::size_t kStreamCopyThreshold = std::size_t{2} << 20;

/// Copies `n` bytes from `src` to `dst` with streaming stores (the ranges
/// must not overlap).
void stream_copy(void* dst, const void* src, std::size_t n);

/// Copies of at least this many bytes are split across host cores.
inline constexpr std::size_t kSplitCopyMin = std::size_t{1} << 20;

/// The most slices one copy is cut into: the caller's and three helpers'.
inline constexpr unsigned kMaxPlaceParts = 4;

/// stream_copy, split across the helper threads from kSplitCopyMin bytes
/// on; returns when every byte is in place.
void stream_copy_split(void* dst, const void* src, std::size_t n);

namespace detail {

/// stream_copy_split cut into exactly `parts` slices (1..kMaxPlaceParts),
/// whatever `n` is. Slices no helper claims are copied by the caller.
void stream_copy_parts(void* dst, const void* src, std::size_t n, unsigned parts);

/// The number of helper threads stream_copy_split uses.
unsigned stream_copy_helpers();

}  // namespace detail

#if defined(__x86_64__)
namespace detail {

/// The two streaming bodies; stream_copy picks the AVX-512F one when
/// stream_copy_has_avx512(). Call stream_copy_avx512 only then.
void stream_copy_sse2(void* dst, const void* src, std::size_t n);
void stream_copy_avx512(void* dst, const void* src, std::size_t n);
bool stream_copy_has_avx512();

}  // namespace detail
#endif

}  // namespace rails
