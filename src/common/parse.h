#ifndef MOPE_COMMON_PARSE_H_
#define MOPE_COMMON_PARSE_H_

/// \file parse.h
/// The one strict unsigned integer syntax of the tree. Command-line flags
/// and "host:port" strings use it, so a typo is an error instead of a
/// silently different number: strtoull reads "zz" as 0, skips leading
/// whitespace and takes a sign. net::ParsePort is this plus a range check.

#include <cstdint>
#include <string_view>

#include "common/status.h"

namespace mope {

/// Parses the whole of `text` as an unsigned integer: ASCII decimal digits,
/// or, when `allow_hex`, also `0x`/`0X` followed by hex digits. An empty
/// string, a sign, whitespace, any other character or a value above
/// UINT64_MAX is InvalidArgument.
Result<uint64_t> ParseUnsigned(std::string_view text, bool allow_hex = false);

}  // namespace mope

#endif  // MOPE_COMMON_PARSE_H_
