#ifndef MOPE_COMMON_CRC32_H_
#define MOPE_COMMON_CRC32_H_

/// \file crc32.h
/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
///
/// One implementation, three consumers: the wire protocol's frame check
/// (net/wire.h), the checkpoint meta file's checksum and the WAL's
/// per-record checksums (src/storage/). All three defend the same way:
/// bytes that crossed an untrusted medium (network, disk) are verified
/// before anything decodes them.
///
/// Every reply byte passes through it twice, so there are two paths to the
/// same value. On an x86-64 host with PCLMULQDQ and SSE4.1 (checked once per
/// process at run time, whatever the build's -march) inputs of 64 bytes or
/// more are folded by carry-less multiplication, 64 bytes per step; the
/// remaining tail, shorter inputs and every other host use the portable
/// slicing-by-8 loop, which folds in 8 bytes per step. The SSE4.2 `crc32`
/// instruction is not an option: it computes CRC-32C, a different
/// polynomial, and would change every frame, WAL record and checkpoint.

#include <cstdint>
#include <string_view>

namespace mope {

/// CRC-32 of `bytes`, starting from the standard initial state.
uint32_t Crc32(std::string_view bytes);

/// Incremental form: continues a CRC computed by Crc32/Crc32Continue over a
/// previous chunk. `Crc32(a + b) == Crc32Continue(Crc32(a), b)`, and
/// `Crc32Continue(0, b) == Crc32(b)`.
uint32_t Crc32Continue(uint32_t crc, std::string_view bytes);

namespace internal {

/// The two paths behind Crc32Continue, so a test can compare each with a
/// reference on any host that has it. Callers use Crc32/Crc32Continue.
bool Crc32PclmulSupported();
uint32_t Crc32ContinuePortable(uint32_t crc, std::string_view bytes);
/// Precondition: Crc32PclmulSupported(). On an x86-64 host without the
/// instructions it faults; off x86-64 it is the portable path.
uint32_t Crc32ContinuePclmul(uint32_t crc, std::string_view bytes);

}  // namespace internal

}  // namespace mope

#endif  // MOPE_COMMON_CRC32_H_
