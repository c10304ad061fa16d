/// Golden vectors for OPE and MOPE: exact outputs under fixed keys.
///
/// The other OPE tests check properties (order, round trips, determinism
/// within one run); these pin the sampled function itself byte for byte, so
/// any change to the PRF tags, the coin stream, the HGD sampler or the
/// descent (including how sampled nodes are cached) that alters a single
/// ciphertext, a Corruption verdict or a floor/ceil answer fails here. The
/// server-visible stream is a function of exactly these values.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/interval.h"
#include "ope/mope.h"
#include "ope/ope.h"

namespace mope::ope {
namespace {

/// FIPS-197 Appendix A key bytes.
OpeKey KeyA() {
  return OpeKey{{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7,
                 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}};
}

/// Key bytes 0x00, 0x01, ..., 0x0f.
OpeKey KeyB() {
  return OpeKey{{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09,
                 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f}};
}

OpeScheme MakeScheme(uint64_t domain, uint64_t range, const OpeKey& key) {
  auto scheme = OpeScheme::Create({domain, range}, key);
  EXPECT_TRUE(scheme.ok()) << scheme.status();
  return std::move(scheme).value();
}

using Pairs = std::vector<std::pair<uint64_t, uint64_t>>;

/// A ciphertext outside the image: Decrypt must report Corruption and
/// DecryptFloorCeil must return `ceil` (the smallest m with Enc(m) >= c).
struct NonImage {
  uint64_t cipher;
  uint64_t ceil;
};

void ExpectEncrypts(const OpeScheme& s, const Pairs& expected) {
  for (const auto& [m, c] : expected) {
    const auto got = s.Encrypt(m);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got.value(), c) << "m=" << m;
  }
}

void ExpectNonImage(const OpeScheme& s, const std::vector<NonImage>& points) {
  for (const NonImage& p : points) {
    EXPECT_TRUE(s.Decrypt(p.cipher).status().IsCorruption()) << p.cipher;
    const auto ceil = s.DecryptFloorCeil(p.cipher);
    ASSERT_TRUE(ceil.ok()) << ceil.status();
    EXPECT_EQ(ceil.value(), p.ceil) << "c=" << p.cipher;
  }
}

TEST(OpeGoldenTest, TpchDateDomain) {
  // The TPC-H l_shipdate domain: 2557 days, N = SuggestRange(2557).
  ASSERT_EQ(SuggestRange(2557), 32768u);
  const OpeScheme s = MakeScheme(2557, 32768, KeyA());
  const Pairs expected = {
      {0, 0},         {1, 7},         {2, 37},        {100, 1306},
      {365, 4123},    {730, 9117},    {1000, 12767},  {1278, 16412},
      {1500, 19109},  {2000, 25818},  {2191, 28086},  {2555, 32732},
      {2556, 32755}};
  ExpectEncrypts(s, expected);
  for (const auto& [m, c] : expected) {
    EXPECT_EQ(s.Decrypt(c).value(), m) << "c=" << c;
    EXPECT_EQ(s.DecryptFloorCeil(c).value(), m) << "c=" << c;
  }
  ExpectNonImage(s, {{1, 1},
                     {100, 11},
                     {1000, 78},
                     {12345, 972},
                     {16383, 1275},
                     {16384, 1275},
                     {20000, 1581},
                     {30000, 2335},
                     {32766, 2557},
                     {32767, 2557}});
}

TEST(OpeGoldenTest, SmallDomainFullTable) {
  const OpeScheme s = MakeScheme(16, 128, KeyB());
  const std::array<uint64_t, 16> image = {13, 21, 22, 43,  70,  73,  83,  84,
                                          85, 86, 90, 93, 94, 109, 117, 120};
  for (uint64_t m = 0; m < image.size(); ++m) {
    EXPECT_EQ(s.Encrypt(m).value(), image[m]) << "m=" << m;
  }
  ExpectNonImage(s, {{0, 0},
                     {12, 0},
                     {14, 1},
                     {23, 3},
                     {44, 4},
                     {71, 5},
                     {87, 10},
                     {95, 13},
                     {110, 14},
                     {118, 15},
                     {121, 16},
                     {127, 16}});
  // Every ciphertext: the image decrypts to its index, everything else is
  // Corruption, and floor/ceil agrees with a search over the table.
  for (uint64_t c = 0; c < 128; ++c) {
    uint64_t ceil = image.size();
    for (uint64_t m = 0; m < image.size(); ++m) {
      if (image[m] >= c) {
        ceil = m;
        break;
      }
    }
    EXPECT_EQ(s.DecryptFloorCeil(c).value(), ceil) << "c=" << c;
    const auto plain = s.Decrypt(c);
    if (ceil < image.size() && image[ceil] == c) {
      EXPECT_EQ(plain.value(), ceil) << "c=" << c;
    } else {
      EXPECT_TRUE(plain.status().IsCorruption()) << "c=" << c;
    }
  }
}

TEST(OpeGoldenTest, LargeDomainSpotValues) {
  const OpeScheme s = MakeScheme(uint64_t{1} << 20, uint64_t{1} << 24, KeyA());
  ExpectEncrypts(s, {{0, 0},
                     {1, 7},
                     {12345, 195873},
                     {524287, 8392395},
                     {524288, 8392444},
                     {999999, 16000584},
                     {1048575, 16777183}});
  EXPECT_EQ(s.Decrypt(8392444).value(), 524288u);
  ExpectNonImage(s, {{8388608, 524032}, {16777215, 1048576}});
}

TEST(MopeGoldenTest, NonzeroOffset) {
  MopeKey key;
  key.ope_key = KeyB();
  key.offset = 1234;
  auto created = MopeScheme::Create({2557, 32768}, key);
  ASSERT_TRUE(created.ok()) << created.status();
  const MopeScheme& s = *created;
  const Pairs expected = {
      {0, 15542}, {1, 15545}, {1322, 32762}, {1323, 13}, {2556, 15537}};
  for (const auto& [m, c] : expected) {
    EXPECT_EQ(s.Encrypt(m).value(), c) << "m=" << m;
    EXPECT_EQ(s.Decrypt(c).value(), m) << "c=" << c;
  }
  for (const uint64_t c : {uint64_t{0}, uint64_t{15543}, uint64_t{32767}}) {
    EXPECT_TRUE(s.Decrypt(c).status().IsCorruption()) << "c=" << c;
  }
  EXPECT_EQ(s.EncryptRange(ModularInterval(2500, 200, 2557)).value(),
            (CipherRange{14921, 17414}));
  EXPECT_EQ(s.EncryptRange(ModularInterval(100, 365, 2557)).value(),
            (CipherRange{16788, 21710}));
  // Shifted by the offset this range wraps the domain, so its ciphertext
  // range wraps too.
  const CipherRange wrapped =
      s.EncryptRange(ModularInterval(1200, 200, 2557)).value();
  EXPECT_EQ(wrapped, (CipherRange{31135, 1142}));
  EXPECT_TRUE(wrapped.wraps());
}

}  // namespace
}  // namespace mope::ope
