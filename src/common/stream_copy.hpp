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
