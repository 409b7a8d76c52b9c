#include "stats/json.h"

#include <cstdlib>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "stats/metrics.h"

namespace damkit::stats {
namespace {

TEST(JsonWriter, EscapesStrings) {
  std::string out;
  json_append_string(out, "a\"b\\c\n\t");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\n\\t\"");
}

TEST(JsonWriter, DoublesRoundTripShortest) {
  std::string out;
  json_append_double(out, 0.1);
  EXPECT_EQ(out, "0.1");
  out.clear();
  json_append_double(out, 1e-9);
  EXPECT_EQ(std::stod(out), 1e-9);
}

TEST(JsonWriter, NonFiniteSerializesAsNull) {
  // Regression: NaN/Inf used to be printed verbatim ("nan", "inf"), which
  // is not JSON and broke every downstream parser of the snapshot.
  std::string out;
  json_append_double(out, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(out, "null");
  out.clear();
  json_append_double(out, std::numeric_limits<double>::infinity());
  EXPECT_EQ(out, "null");
  out.clear();
  json_append_double(out, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(out, "null");
}

TEST(RegistryJson, RoundTripsAllThreeKinds) {
  // The snapshot text carries every kind losslessly: names sorted within
  // each kind, counters as full u64 integers, gauges in the shortest of
  // 6, 12 or 17 significant digits that reads back bit-exactly, and
  // histograms as [bucket index, count] pairs.
  MetricsRegistry reg;
  reg.add("dev.reads", 12345);
  reg.add("dev.bytes", 18446744073709551615ULL);  // u64 max, beyond 2^53
  reg.set("dev.util", 0.25);
  reg.set("dev.ratio", 0.123456789);  // needs 12 digits
  reg.set("dev.sum", 0.1 + 0.2);      // needs 17
  reg.set("dev.neg", -1.5e-9);
  reg.set("dev.whole", 42.0);
  Histogram& h = reg.histo("dev.lat");
  for (const uint64_t v : {1u, 999u, 999u, 1u << 20}) h.record(v);

  EXPECT_EQ(reg.to_json(), R"({
  "counters": {
    "dev.bytes": 18446744073709551615,
    "dev.reads": 12345
  },
  "gauges": {
    "dev.neg": -1.5e-09,
    "dev.ratio": 0.123456789,
    "dev.sum": 0.30000000000000004,
    "dev.util": 0.25,
    "dev.whole": 42
  },
  "histograms": {
    "dev.lat": {"count": 4, "sum": 1050575, "min": 1, "max": 1048576, "buckets": [[1, 1], [159, 2], [320, 1]]}
  }
}
)");
  reg.for_each_gauge([](const std::string& name, double v) {
    std::string text;
    json_append_double(text, v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << name;
  });
}

TEST(RegistryJson, EmptyRegistryHasEmptySections) {
  EXPECT_EQ(MetricsRegistry().to_json(), R"({
  "counters": {},
  "gauges": {},
  "histograms": {}
}
)");
}

TEST(RegistryJson, NonFiniteGaugesWriteNull) {
  // JSON has no literal for NaN or infinity: a gauge that went non-finite
  // (e.g. a rate with a zero denominator) is written as null, and its
  // finite neighbors are untouched.
  MetricsRegistry reg;
  reg.set("g.nan", std::numeric_limits<double>::quiet_NaN());
  reg.set("g.inf", std::numeric_limits<double>::infinity());
  reg.set("g.ninf", -std::numeric_limits<double>::infinity());
  reg.set("g.ok", 2.5);
  EXPECT_EQ(reg.to_json(), R"({
  "counters": {},
  "gauges": {
    "g.inf": null,
    "g.nan": null,
    "g.ninf": null,
    "g.ok": 2.5
  },
  "histograms": {}
}
)");
}

}  // namespace
}  // namespace damkit::stats
