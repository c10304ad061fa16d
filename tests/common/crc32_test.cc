#include "common/crc32.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/random.h"

namespace mope {
namespace {

/// The bytewise table-driven CRC-32 the library used before it moved to
/// slicing-by-8: the reference every test below compares against.
uint32_t ReferenceCrc32(std::string_view bytes) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : bytes) {
    crc = table[(crc ^ static_cast<uint8_t>(ch)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string RandomBytes(Rng* rng, size_t n) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng->UniformUint64(256));
  return out;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(20260101);
  const std::string buffer = RandomBytes(&rng, 256 + 8);
  // Every start offset 0..7 puts the 8-byte word loads at every alignment;
  // every length 0..256 covers the word loop and the byte tail together.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 256; ++len) {
      const std::string_view bytes =
          std::string_view(buffer).substr(offset, len);
      ASSERT_EQ(Crc32(bytes), ReferenceCrc32(bytes))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, MatchesBytewiseReferenceOnAReplySizedBuffer) {
  Rng rng(7);
  // The size of one analyst_q6 range-batch reply frame.
  const std::string buffer = RandomBytes(&rng, 1430000);
  EXPECT_EQ(Crc32(buffer), ReferenceCrc32(buffer));
}

TEST(Crc32Test, ContinueAtEverySplitEqualsOneShot) {
  Rng rng(300);
  const std::string buffer = RandomBytes(&rng, 300);
  const uint32_t whole = Crc32(buffer);
  ASSERT_EQ(whole, ReferenceCrc32(buffer));
  for (size_t split = 0; split <= buffer.size(); ++split) {
    const std::string_view bytes(buffer);
    EXPECT_EQ(Crc32Continue(Crc32(bytes.substr(0, split)),
                            bytes.substr(split)),
              whole)
        << "split at " << split;
  }
}

}  // namespace
}  // namespace mope
