// Metrics core: a registry of named counters, gauges, and log-scale
// histograms that every damkit layer exports into.
//
// Design rules (kept deliberately simple so instrumentation stays cheap):
//   - Hot paths keep their own plain struct counters (DeviceStats,
//     NodeCacheStats, ...) exactly as before — a counter bump is one add.
//   - Histogram recording can be compiled out entirely with
//     -DDAMKIT_STATS_ENABLED=0 (the CMake DAMKIT_STATS option). With the
//     switch off DAMKIT_STATS_ONLY expands to nothing, so the disabled
//     build carries zero instrumentation overhead.
//   - A MetricsRegistry is a *snapshot* container: subsystems export into
//     it on demand (export_metrics methods), it is never written from hot
//     paths. Names are sorted (std::map), so iteration, merge, and the
//     JSON rendering are deterministic.
//
// Merge semantics (parallel_sweep: one registry per worker, merged in
// point order): counters add, histograms merge bucket-wise, gauges keep
// the maximum. Prefer counters for anything that must aggregate exactly;
// gauges are for snapshots and high-water marks.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "util/histogram.h"

#ifndef DAMKIT_STATS_ENABLED
#define DAMKIT_STATS_ENABLED 1
#endif

namespace damkit::stats {

/// Statement guard: DAMKIT_STATS_ONLY(x) compiles x only when stats are
/// built in.
#if DAMKIT_STATS_ENABLED
#define DAMKIT_STATS_ONLY(x) x
#else
#define DAMKIT_STATS_ONLY(x)
#endif

/// Snapshot registry of named metrics. See file comment for semantics.
class MetricsRegistry {
 public:
  /// Add `delta` to counter `name` (created at zero on first use).
  void add(std::string_view name, uint64_t delta);
  /// Set gauge `name`; merge() keeps the max of the two sides.
  void set(std::string_view name, double value);
  /// Mutable histogram `name` (created empty on first use).
  Histogram& histo(std::string_view name);

  uint64_t counter(std::string_view name) const;
  double gauge(std::string_view name) const;
  /// nullptr when absent.
  const Histogram* histogram(std::string_view name) const;
  bool has_counter(std::string_view name) const;
  bool has_gauge(std::string_view name) const;

  size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }
  bool empty() const { return size() == 0; }

  /// Counters add, gauges max, histograms merge. Deterministic for any
  /// merge order of commutative inputs; parallel_sweep merges in point
  /// order so even gauge maxima are order-independent.
  void merge(const MetricsRegistry& other);
  void clear();

  /// Sorted iteration (names ascend within each kind).
  void for_each_counter(
      const std::function<void(const std::string&, uint64_t)>& fn) const;
  void for_each_gauge(
      const std::function<void(const std::string&, double)>& fn) const;
  void for_each_histogram(
      const std::function<void(const std::string&, const Histogram&)>& fn)
      const;

  /// Stable JSON snapshot: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{count,sum,min,max,buckets:[[index,count],...]}}}.
  /// Gauges render with enough digits to round-trip exactly.
  std::string to_json() const;

 private:
  std::map<std::string, uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// Store a copy of `h` as histogram `name` and export the standard tail
/// summary next to it as gauges: "<name>.p50", "<name>.p99", "<name>.p999",
/// "<name>.mean", and counter "<name>.count". The serving layer and benches
/// publish latency distributions through this so reports and gates read
/// percentiles without re-deriving them from buckets.
void export_histogram_summary(MetricsRegistry& reg, std::string_view name,
                              const Histogram& h);

}  // namespace damkit::stats
