#include "stats/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace damkit::stats {

void json_append_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
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

void json_append_double(std::string& out, double v) {
  // JSON has no literal for NaN or ±Inf ("%g" would print "nan"/"inf",
  // which no conforming parser accepts); serialize non-finite as null.
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  // %.17g round-trips any double; fall back from shorter forms when they
  // reparse exactly, keeping the common case ("0.25") readable.
  for (const int prec : {6, 12, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  out += buf;
}

}  // namespace damkit::stats
