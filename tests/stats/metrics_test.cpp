#include "stats/metrics.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/histogram.h"

namespace damkit::stats {
namespace {

TEST(MetricsRegistry, CountersAccumulate) {
  MetricsRegistry reg;
  EXPECT_FALSE(reg.has_counter("ios"));
  EXPECT_EQ(reg.counter("ios"), 0u);
  reg.add("ios", 3);
  reg.add("ios", 4);
  EXPECT_TRUE(reg.has_counter("ios"));
  EXPECT_EQ(reg.counter("ios"), 7u);
}

TEST(MetricsRegistry, GaugesOverwrite) {
  MetricsRegistry reg;
  reg.set("depth", 4.0);
  reg.set("depth", 2.5);
  EXPECT_DOUBLE_EQ(reg.gauge("depth"), 2.5);
}

TEST(MetricsRegistry, ClearResetsEverything) {
  MetricsRegistry reg;
  reg.add("c", 1);
  reg.set("g", 1.0);
  reg.histo("h").record(10);
  reg.clear();
  EXPECT_TRUE(reg.empty());
  EXPECT_FALSE(reg.has_counter("c"));
  EXPECT_FALSE(reg.has_gauge("g"));
  EXPECT_EQ(reg.histogram("h"), nullptr);
}

TEST(MetricsRegistry, MergeAddsCountersMaxesGauges) {
  MetricsRegistry a;
  a.add("ios", 5);
  a.set("hwm", 10.0);
  a.set("only_a", 1.0);
  MetricsRegistry b;
  b.add("ios", 7);
  b.add("only_b", 2);
  b.set("hwm", 4.0);
  a.merge(b);
  EXPECT_EQ(a.counter("ios"), 12u);
  EXPECT_EQ(a.counter("only_b"), 2u);
  EXPECT_DOUBLE_EQ(a.gauge("hwm"), 10.0);  // max wins
  EXPECT_DOUBLE_EQ(a.gauge("only_a"), 1.0);
}

TEST(MetricsRegistry, MergeCombinesHistograms) {
  MetricsRegistry a;
  a.histo("lat").record(1);
  a.histo("lat").record(100);
  MetricsRegistry b;
  b.histo("lat").record(1000000);
  a.merge(b);
  const Histogram* h = a.histogram("lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_EQ(h->sum(), 1000101u);
  EXPECT_EQ(h->min(), 1u);
  EXPECT_EQ(h->max(), 1000000u);
}

TEST(MetricsRegistry, IterationIsSorted) {
  MetricsRegistry reg;
  reg.add("zebra", 1);
  reg.add("alpha", 1);
  reg.add("middle", 1);
  std::vector<std::string> names;
  reg.for_each_counter(
      [&](const std::string& name, uint64_t) { names.push_back(name); });
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "middle", "zebra"}));
}

TEST(HistogramBuckets, ForEachBucketRoundTripsCounts) {
  Histogram h;
  const uint64_t values[] = {1, 2, 3, 17, 1024, 1025, 70000};
  for (uint64_t v : values) h.record(v);
  uint64_t total = 0;
  h.for_each_bucket([&](int index, uint64_t floor, uint64_t count) {
    EXPECT_GE(index, 0);
    EXPECT_LT(index, Histogram::bucket_limit());
    EXPECT_LE(floor, 70000u);
    total += count;
  });
  EXPECT_EQ(total, h.count());
}

TEST(HistogramBuckets, BucketFloorsAreMonotone) {
  Histogram h;
  for (uint64_t v = 1; v < 5000; v += 7) h.record(v);
  uint64_t last_floor = 0;
  bool first = true;
  h.for_each_bucket([&](int, uint64_t floor, uint64_t) {
    if (!first) {
      EXPECT_GT(floor, last_floor);
    }
    last_floor = floor;
    first = false;
  });
}

}  // namespace
}  // namespace damkit::stats
