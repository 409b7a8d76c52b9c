// Log-bucketed latency histogram. Benches record per-operation simulated
// latencies here; reports read back counts, means, and percentiles without
// storing every sample.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace damkit {

/// Histogram over non-negative 64-bit values (typically nanoseconds) with
/// sub-buckets inside each power-of-two decade for ~3% relative resolution.
class Histogram {
 public:
  Histogram();

  void record(uint64_t value);
  void merge(const Histogram& other);
  void clear();

  /// Total bucket slots (valid indices are [0, bucket_limit())).
  static constexpr int bucket_limit() { return kBucketCount; }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Approximate percentile (p in [0,100]) from bucket boundaries.
  uint64_t percentile(double p) const;

  /// Multi-line ASCII rendering (bucket | count | bar), top `max_rows`
  /// most-populated buckets.
  std::string to_string(size_t max_rows = 12) const;

  /// Visit every non-empty bucket in ascending order:
  /// fn(bucket_index, bucket_floor_value, count). Serialization support.
  void for_each_bucket(
      const std::function<void(int, uint64_t, uint64_t)>& fn) const;

 private:
  static constexpr int kSubBuckets = 16;  // per power-of-two
  static constexpr int kBucketCount = 64 * kSubBuckets;

  static int bucket_index(uint64_t value);
  static uint64_t bucket_floor(int index);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = ~0ULL;
  uint64_t max_ = 0;
};

}  // namespace damkit
