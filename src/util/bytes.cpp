#include "util/bytes.h"

#include <cctype>
#include <cstdio>

namespace damkit {

std::string format_bytes(uint64_t bytes) {
  struct Unit {
    uint64_t scale;
    const char* suffix;
  };
  static constexpr Unit kUnits[] = {
      {kGiB, "GiB"}, {kMiB, "MiB"}, {kKiB, "KiB"}};
  for (const Unit& u : kUnits) {
    if (bytes >= u.scale) {
      const double v = static_cast<double>(bytes) / static_cast<double>(u.scale);
      char buf[32];
      if (bytes % u.scale == 0) {
        std::snprintf(buf, sizeof(buf), "%.0f %s", v, u.suffix);
      } else {
        std::snprintf(buf, sizeof(buf), "%.2f %s", v, u.suffix);
      }
      return buf;
    }
  }
  return std::to_string(bytes) + " B";
}

uint64_t parse_bytes(std::string_view text) {
  size_t i = 0;
  uint64_t value = 0;
  bool any_digit = false;
  while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]))) {
    value = value * 10 + static_cast<uint64_t>(text[i] - '0');
    any_digit = true;
    ++i;
  }
  if (!any_digit) return 0;
  // Optional fractional part only matters with a unit suffix; keep it simple
  // and integral — callers pass whole units.
  while (i < text.size() && text[i] == ' ') ++i;
  if (i == text.size()) return value;
  const char c = static_cast<char>(std::tolower(static_cast<unsigned char>(text[i])));
  switch (c) {
    case 'k': return value * kKiB;
    case 'm': return value * kMiB;
    case 'g': return value * kGiB;
    case 'b': return value;
    default: return 0;
  }
}

}  // namespace damkit
