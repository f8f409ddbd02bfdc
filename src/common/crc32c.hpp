// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78).
//
// This is the checksum real transports put on the wire (iSCSI, SCTP, RoCE
// ICRC, ext4 metadata) because its polynomial has better error-detection
// properties for short messages than the zlib CRC32. Three implementations
// compute the same values:
//
//  * On x86-64 CPUs with AVX-512F/VL and VPCLMULQDQ, a carry-less-multiply
//    fold over 512-bit registers (sixteen 128-bit lanes in flight).
//  * On x86-64 CPUs with SSE4.2 and PCLMULQDQ, the same fold over four
//    128-bit registers; from 2,176 bytes on, each block also runs three
//    crc32 instruction streams beside the fold, which use another port.
//    Both finish with two crc32 instructions, which reduce the last lane
//    to a CRC register, and run the crc32 chain over the tail; buffers
//    under 128 bytes use the chain alone.
//  * Everywhere else, the classic software slice-by-8: eight 256-entry
//    tables, eight bytes consumed per iteration, portable across every
//    toolchain the CI matrix builds.
//
// The path is picked once, on first use, from the running CPU
// (__builtin_cpu_supports); there is no knob. docs/PERF.md ("Wire
// checksum") has the throughput of each.
//
// The API is incremental so callers can checksum a header and a payload
// without concatenating them: crc32c_extend(crc32c_extend(0, hdr), body)
// equals crc32c over the concatenation. The conventional final/init
// reflection (~crc) is handled internally; a running value returned by one
// call is a valid seed for the next.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rails {

/// One-shot CRC32C of `len` bytes. crc32c("123456789") == 0xE3069283.
std::uint32_t crc32c(const void* data, std::size_t len);

/// Extends a running CRC32C with `len` more bytes. Seed with 0 (the CRC of
/// the empty string); chaining extends over concatenated inputs.
std::uint32_t crc32c_extend(std::uint32_t crc, const void* data, std::size_t len);

namespace detail {

/// The software slice-by-8 path, callable on any CPU. crc32c_extend returns
/// the same value; tests compare the two.
std::uint32_t crc32c_extend_portable(std::uint32_t crc, const void* data, std::size_t len);

/// The 128-bit PCLMULQDQ fold, with three crc32 streams beside it in
/// blocks from 2,176 bytes on. Call only when crc32c_pclmul_supported();
/// on targets without the instructions it is the portable path.
std::uint32_t crc32c_extend_pclmul(std::uint32_t crc, const void* data, std::size_t len);
bool crc32c_pclmul_supported();

/// The 512-bit VPCLMULQDQ fold. Call only when crc32c_vpclmul_supported();
/// on targets without the instructions it is the portable path.
std::uint32_t crc32c_extend_vpclmul(std::uint32_t crc, const void* data, std::size_t len);
bool crc32c_vpclmul_supported();

/// The path crc32c_extend dispatches to: "vpclmul", "pclmul" or "portable".
const char* crc32c_path();

}  // namespace detail

}  // namespace rails
