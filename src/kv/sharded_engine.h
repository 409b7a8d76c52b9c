// ShardedEngine: a kv::Dictionary that partitions the key space across k
// inner engines, each living in its own device region (base_offset +
// i * shard_stride_bytes). Point ops route to one shard; range_scan fans
// out and k-way-merges the ordered shard results; metrics aggregate under
// shard<i>. prefixes.
//
// This is the composition the Multi-Queue SSD modeling line motivates:
// partition the key space across P parallel shards so independent point
// descents can land on independent device regions. With k = 1 the router
// is a pure pass-through — every call forwards to the single inner engine
// with no extra simulated time.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kv/engine.h"

namespace damkit::kv {

struct ShardedConfig {
  int shards = 4;
  /// Device region stride between consecutive shards.
  uint64_t shard_stride_bytes = 4ULL << 30;
  /// Region start of shard 0.
  uint64_t base_offset = 0;
};

/// Stable key → shard hash (FNV-1a 64), exposed for tests.
uint64_t shard_hash(std::string_view key);

class ShardedEngine final : public Dictionary {
 public:
  /// Builds `sharded.shards` inner engines of `kind` on `dev`/`io`, shard
  /// i's extent space rebased to base_offset + i * stride.
  ShardedEngine(EngineKind kind, sim::Device& dev, sim::IoContext& io,
                const EngineConfig& config, const ShardedConfig& sharded);
  ~ShardedEngine() override;

  std::string_view name() const override { return name_; }
  const Capabilities& capabilities() const override { return caps_; }

  Status try_put(std::string_view key, std::string_view value) override;
  StatusOr<std::optional<std::string>> try_get(std::string_view key) override;
  Status try_erase(std::string_view key) override;
  Status try_upsert(std::string_view key, int64_t delta) override;
  StatusOr<std::vector<std::pair<std::string, std::string>>> try_range_scan(
      std::string_view lo, size_t limit) override;
  void bulk_load(
      uint64_t count,
      const std::function<std::pair<std::string, std::string>(uint64_t)>& item)
      override;
  /// Attempts every shard; returns the first failure.
  Status checkpoint() override;
  void abandon() override;
  /// Forwarded to shard 0: every shard shares the one IoContext.
  void set_retry_policy(const blockdev::RetryPolicy& policy) override;
  blockdev::RetryCounters retry_counters() const override;
  size_t height() const override;
  double cache_hit_rate() const override;
  void check_invariants() override;
  /// Exports each shard under `<prefix>shard<i>.` plus a `shards` gauge.
  void export_metrics(stats::MetricsRegistry& reg,
                      std::string_view prefix) const override;

  int shard_count() const { return static_cast<int>(inner_.size()); }
  /// Which shard `key` routes to (tests).
  size_t shard_of(std::string_view key) const;
  Dictionary& shard(size_t i) { return *inner_[i]; }

 private:
  std::vector<std::unique_ptr<Dictionary>> inner_;
  Capabilities caps_;
  std::string name_;
};

/// Convenience: a k-shard router over `kind`, or the bare engine when
/// sharded.shards == 1 at base offset 0 (the single-shard fast path —
/// zero wrapper layers).
std::unique_ptr<Dictionary> make_sharded_engine(EngineKind kind,
                                                sim::Device& dev,
                                                sim::IoContext& io,
                                                const EngineConfig& config,
                                                const ShardedConfig& sharded);

}  // namespace damkit::kv
