#ifndef IFLS_COMMON_JSON_H_
#define IFLS_COMMON_JSON_H_

#include <cstdio>
#include <string>
#include <string_view>

namespace ifls {

/// Appends `s` to `out` as a quoted JSON string, the one escaper of the
/// serving plane's JSON (trace export, /slow, /venues): `"` and `\` are
/// backslash-escaped, bytes below 0x20 become `\u00XX`, and every other
/// byte, UTF-8 sequences included, passes through unchanged.
inline void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace ifls

#endif  // IFLS_COMMON_JSON_H_
