#ifndef MOPE_COMMON_CODING_H_
#define MOPE_COMMON_CODING_H_

/// \file coding.h
/// Fixed-width little-endian loads and stores: the one place the byte order
/// of every on-disk and on-wire integer is decided (the value codec, the
/// wire frame header, WAL record headers, the checkpoint meta file, the
/// CRC's word loads).

#include <bit>
#include <cstdint>
#include <cstring>

namespace mope {

// Each load and store is one memcpy of the native representation, which is
// the little-endian encoding only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "the byte codecs assume a little-endian host");

inline uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
inline uint64_t LoadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}
inline void StoreU32(char* p, uint32_t v) { std::memcpy(p, &v, 4); }
inline void StoreU64(char* p, uint64_t v) { std::memcpy(p, &v, 8); }

}  // namespace mope

#endif  // MOPE_COMMON_CODING_H_
