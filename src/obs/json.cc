#include "obs/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace pase::obs {

void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  int prec = 1;
  for (; prec < 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  if (prec == 17) std::snprintf(buf, sizeof(buf), "%.17g", v);
  if (std::strchr(buf, 'e') != nullptr && v == std::trunc(v) &&
      std::fabs(v) < 0x1p53) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  }
  out += buf;
}

void append_json_uint(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace pase::obs
