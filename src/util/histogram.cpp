#include "util/histogram.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "util/status.h"

namespace damkit {

Histogram::Histogram() : buckets_(kBucketCount, 0) {}

int Histogram::bucket_index(uint64_t value) {
  if (value < kSubBuckets) return static_cast<int>(value);
  const int log2 = 63 - std::countl_zero(value);
  // Position within the decade, scaled to kSubBuckets sub-buckets.
  const int shift = log2 - 4;  // log2(kSubBuckets) == 4
  const int sub = static_cast<int>((value >> shift) & (kSubBuckets - 1));
  return log2 * kSubBuckets + sub;
}

uint64_t Histogram::bucket_floor(int index) {
  if (index < kSubBuckets) return static_cast<uint64_t>(index);
  const int log2 = index / kSubBuckets;
  const int sub = index % kSubBuckets;
  return (1ULL << log2) + (static_cast<uint64_t>(sub) << (log2 - 4));
}

void Histogram::record(uint64_t value) {
  ++buckets_[static_cast<size_t>(bucket_index(value))];
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::merge(const Histogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Histogram::clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = ~0ULL;
  max_ = 0;
}

uint64_t Histogram::percentile(double p) const {
  DAMKIT_CHECK(p >= 0.0 && p <= 100.0);
  if (count_ == 0) return 0;
  const uint64_t target =
      static_cast<uint64_t>(p / 100.0 * static_cast<double>(count_ - 1)) + 1;
  uint64_t seen = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    seen += buckets_[static_cast<size_t>(i)];
    if (seen >= target) return bucket_floor(i);
  }
  return max_;
}

void Histogram::for_each_bucket(
    const std::function<void(int, uint64_t, uint64_t)>& fn) const {
  for (int i = 0; i < kBucketCount; ++i) {
    const uint64_t c = buckets_[static_cast<size_t>(i)];
    if (c > 0) fn(i, bucket_floor(i), c);
  }
}

std::string Histogram::to_string(size_t max_rows) const {
  struct Row {
    int index;
    uint64_t count;
  };
  std::vector<Row> rows;
  for (int i = 0; i < kBucketCount; ++i) {
    if (buckets_[static_cast<size_t>(i)] > 0) {
      rows.push_back({i, buckets_[static_cast<size_t>(i)]});
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.count > b.count; });
  if (rows.size() > max_rows) rows.resize(max_rows);
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.index < b.index; });

  uint64_t peak = 1;
  for (const Row& r : rows) peak = std::max(peak, r.count);

  std::string out;
  char line[160];
  for (const Row& r : rows) {
    const int bar = static_cast<int>(40 * r.count / peak);
    std::snprintf(line, sizeof(line), "%12llu | %10llu | %.*s\n",
                  static_cast<unsigned long long>(bucket_floor(r.index)),
                  static_cast<unsigned long long>(r.count), bar,
                  "########################################");
    out += line;
  }
  return out;
}

}  // namespace damkit
