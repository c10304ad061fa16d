#include "common/parse.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace mope {
namespace {

TEST(ParseUnsignedTest, WholeStringDecimalOrOptionalHex) {
  for (const char* bad : {"", "+5", "-1", " 5", "5 ", "5x", "1.5", "zz",
                          "0x10", "18446744073709551616"}) {
    EXPECT_TRUE(ParseUnsigned(bad).status().IsInvalidArgument()) << bad;
  }
  EXPECT_EQ(ParseUnsigned("0").value(), 0u);
  EXPECT_EQ(ParseUnsigned("010").value(), 10u);  // not octal, as strtoull's 0
  EXPECT_EQ(ParseUnsigned("18446744073709551615").value(), UINT64_MAX);

  for (const char* bad : {"0x", "0x-1", "0x 1", "0xZZ", "0x0x5", "-0x5",
                          "0x10000000000000000"}) {
    EXPECT_TRUE(ParseUnsigned(bad, /*allow_hex=*/true).status()
                    .IsInvalidArgument())
        << bad;
  }
  EXPECT_EQ(ParseUnsigned("0x5811", /*allow_hex=*/true).value(), 0x5811u);
  EXPECT_EQ(ParseUnsigned("0XfF", /*allow_hex=*/true).value(), 0xffu);
  EXPECT_EQ(ParseUnsigned("365", /*allow_hex=*/true).value(), 365u);
}

}  // namespace
}  // namespace mope
