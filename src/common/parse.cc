#include "common/parse.h"

#include <charconv>
#include <string>
#include <system_error>

namespace mope {

Result<uint64_t> ParseUnsigned(std::string_view text, bool allow_hex) {
  std::string_view digits = text;
  int base = 10;
  if (allow_hex && digits.size() > 2 && digits[0] == '0' &&
      (digits[1] == 'x' || digits[1] == 'X')) {
    digits.remove_prefix(2);
    base = 16;
  }
  // from_chars takes no sign and no whitespace for an unsigned type.
  uint64_t value = 0;
  const char* end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, value, base);
  if (ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument("integer out of range: '" +
                                   std::string(text) + "'");
  }
  if (digits.empty() || ec != std::errc() || ptr != end) {
    return Status::InvalidArgument(
        std::string(allow_hex ? "expected decimal or 0x hex digits"
                              : "expected decimal digits") +
        ", got '" + std::string(text) + "'");
  }
  return value;
}

}  // namespace mope
