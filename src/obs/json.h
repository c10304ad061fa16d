#ifndef MOPE_OBS_JSON_H_
#define MOPE_OBS_JSON_H_

/// \file json.h
/// Internal to src/obs/: the one JSON string escaper and the one number
/// format behind every JSON renderer in this directory (the registry dump,
/// the alert and time-series views, the Chrome trace export and the log's
/// JSON lines), so they cannot drift apart.

#include <cstdio>
#include <string>
#include <string_view>

namespace mope::obs::internal {

/// Appends `s` to `out` escaped for the inside of a JSON string: `"` and `\`
/// take a backslash, newline and tab their short escapes, and every other
/// control byte a \u00XX escape. Bytes from 0x80 up pass through.
inline void AppendJsonEscaped(std::string_view s, std::string* out) {
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
}

/// `s` escaped as by AppendJsonEscaped, without the surrounding quotes.
inline std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  AppendJsonEscaped(s, &out);
  return out;
}

/// A double as "%.6g". The caller keeps it finite: JSON has no inf or nan.
inline std::string DoubleField(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace mope::obs::internal

#endif  // MOPE_OBS_JSON_H_
