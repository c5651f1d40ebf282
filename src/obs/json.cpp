#include "obs/json.hpp"

#include <cmath>
#include <cstdio>

namespace cbq::obs {

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

double jsonFinite(double v) { return std::isfinite(v) ? v : 0.0; }

}  // namespace cbq::obs
