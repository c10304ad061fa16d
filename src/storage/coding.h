#ifndef MOPE_STORAGE_CODING_H_
#define MOPE_STORAGE_CODING_H_

/// \file coding.h
/// Fixed-width little-endian loads and stores for the storage layer's own
/// framing (WAL record headers, the checkpoint meta file).

#include <cstdint>
#include <cstring>

namespace mope::storage {

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

}  // namespace mope::storage

#endif  // MOPE_STORAGE_CODING_H_
