#include "common/crc32.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <ostream>
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

// --- Each path on its own ------------------------------------------------

/// The two paths behind Crc32Continue, reached directly, so that each is
/// checked on every host that has it, whichever one the host would pick.
struct CrcPath {
  const char* name;
  uint32_t (*continue_crc)(uint32_t, std::string_view);
  bool (*available)();
};

/// gtest writes a parameter into each listed test name, and so into the
/// name ctest registers. Left to itself it prints this struct's bytes, and
/// the pointers among them move with every process's load address; the
/// name alone keeps the listed names the same from one run to the next.
void PrintTo(const CrcPath& path, std::ostream* os) { *os << path.name; }

bool Always() { return true; }

const CrcPath kPaths[] = {
    {"Portable", internal::Crc32ContinuePortable, Always},
    {"Pclmul", internal::Crc32ContinuePclmul, internal::Crc32PclmulSupported},
};

class Crc32PathTest : public ::testing::TestWithParam<CrcPath> {
 protected:
  void SetUp() override {
    if (!GetParam().available()) {
      GTEST_SKIP() << "this host has no PCLMULQDQ/SSE4.1";
    }
  }
  /// Crc32 through this path: Crc32Continue(0, b) == Crc32(b).
  uint32_t Crc(std::string_view bytes) const {
    return GetParam().continue_crc(0, bytes);
  }
  uint32_t Continue(uint32_t crc, std::string_view bytes) const {
    return GetParam().continue_crc(crc, bytes);
  }
};

TEST_P(Crc32PathTest, KnownAnswer) {
  // IEEE 802.3 check value for "123456789".
  EXPECT_EQ(Crc("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc(""), 0u);
}

TEST_P(Crc32PathTest, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  Rng rng(20261019);
  const std::string buffer = RandomBytes(&rng, 1024 + 16);
  // Lengths 0..1024 cover inputs below the 64-byte folding threshold, one
  // to fifteen 64-byte steps, every 16-byte remainder and every byte tail;
  // offsets 0..15 put the 16-byte loads at every alignment.
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      const std::string_view bytes =
          std::string_view(buffer).substr(offset, len);
      ASSERT_EQ(Crc(bytes), ReferenceCrc32(bytes))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST_P(Crc32PathTest, MatchesBytewiseReferenceOnAReplySizedBuffer) {
  Rng rng(8);
  const std::string buffer = RandomBytes(&rng, 1430000);
  EXPECT_EQ(Crc(buffer), ReferenceCrc32(buffer));
}

TEST_P(Crc32PathTest, ContinueAtEverySplitEqualsOneShot) {
  Rng rng(301);
  const std::string buffer = RandomBytes(&rng, 300);
  const uint32_t whole = ReferenceCrc32(buffer);
  ASSERT_EQ(Crc(buffer), whole);
  for (size_t split = 0; split <= buffer.size(); ++split) {
    const std::string_view bytes(buffer);
    EXPECT_EQ(Continue(Crc(bytes.substr(0, split)), bytes.substr(split)),
              whole)
        << "split at " << split;
  }
}

INSTANTIATE_TEST_SUITE_P(Paths, Crc32PathTest, ::testing::ValuesIn(kPaths),
                         [](const ::testing::TestParamInfo<CrcPath>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace mope
