#include "common/crc32.h"

#include <array>

#include "common/coding.h"

namespace mope {

namespace {

/// Slicing-by-8 tables. kTables[0] is the classic bytewise table;
/// kTables[k][b] is the CRC contribution of byte b followed by k zero bytes,
/// so one 8-byte word folds in with eight independent lookups instead of
/// eight dependent ones.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

uint32_t Update(uint32_t crc, std::string_view bytes) {
  const char* p = bytes.data();
  size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    // The reflected CRC consumes the lowest-addressed byte first, which is
    // the word's low byte on the little-endian hosts LoadU64 requires.
    const uint64_t w = LoadU64(p) ^ crc;
    crc = kTables[7][w & 0xFF] ^ kTables[6][(w >> 8) & 0xFF] ^
          kTables[5][(w >> 16) & 0xFF] ^ kTables[4][(w >> 24) & 0xFF] ^
          kTables[3][(w >> 32) & 0xFF] ^ kTables[2][(w >> 40) & 0xFF] ^
          kTables[1][(w >> 48) & 0xFF] ^ kTables[0][w >> 56];
  }
  for (; n > 0; ++p, --n) {
    crc = kTables[0][(crc ^ static_cast<uint8_t>(*p)) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

}  // namespace

uint32_t Crc32(std::string_view bytes) {
  return Update(0xFFFFFFFFu, bytes) ^ 0xFFFFFFFFu;
}

uint32_t Crc32Continue(uint32_t crc, std::string_view bytes) {
  return Update(crc ^ 0xFFFFFFFFu, bytes) ^ 0xFFFFFFFFu;
}

}  // namespace mope
