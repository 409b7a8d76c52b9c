// ShardedEngine: routing, ordered scan merge, per-shard metrics, and the
// single-shard pass-through that keeps k=1 bit-identical to a bare engine.
#include "kv/sharded_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "kv/slice.h"
#include "kv/workload.h"
#include "sim/profiles.h"
#include "sim/ssd.h"
#include "stats/metrics.h"
#include "util/bytes.h"
#include "util/table.h"

namespace damkit {
namespace {

kv::EngineConfig small_config() {
  kv::EngineConfig cfg;
  cfg.btree.node_bytes = 16 * kKiB;
  cfg.btree.cache_bytes = 256 * kKiB;
  cfg.betree.node_bytes = 32 * kKiB;
  cfg.betree.cache_bytes = 256 * kKiB;
  cfg.lsm.memtable_bytes = 32 * kKiB;
  cfg.lsm.sstable_target_bytes = 64 * kKiB;
  cfg.pdam.buffer_bytes = 32 * kKiB;
  return cfg;
}

TEST(ShardedEngineTest, HashRoutingMatchesShardHash) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  kv::ShardedConfig sharded;
  sharded.shards = 4;
  kv::ShardedEngine engine(kv::EngineKind::kBTree, dev, io, small_config(),
                           sharded);
  for (uint64_t i = 0; i < 200; ++i) {
    const std::string key = kv::encode_key(i);
    EXPECT_EQ(engine.shard_of(key), kv::shard_hash(key) % 4) << key;
  }
}

class ShardedRoutingTest : public testing::TestWithParam<kv::EngineKind> {};

TEST_P(ShardedRoutingTest, PointOpsReadBackAcrossShards) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  kv::ShardedConfig sharded;
  sharded.shards = 4;
  const auto dict =
      kv::make_sharded_engine(GetParam(), dev, io, small_config(), sharded);
  EXPECT_TRUE(dict->capabilities().sharded);
  EXPECT_EQ(dict->capabilities().shard_count, 4);
  EXPECT_EQ(dict->name(),
            "sharded-" + std::string(kv::engine_kind_name(GetParam())));

  for (uint64_t i = 0; i < 1500; ++i) {
    dict->put(kv::encode_key(i), kv::make_value(i, 40));
  }
  dict->flush();
  dict->check_invariants();
  for (uint64_t i = 0; i < 1500; i += 41) {
    EXPECT_EQ(dict->get(kv::encode_key(i)), kv::make_value(i, 40)) << i;
  }
  dict->erase(kv::encode_key(82));
  EXPECT_FALSE(dict->get(kv::encode_key(82)).has_value());
}

TEST_P(ShardedRoutingTest, ScanMergesShardsInKeyOrder) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  kv::ShardedConfig sharded;
  sharded.shards = 4;
  const auto dict =
      kv::make_sharded_engine(GetParam(), dev, io, small_config(), sharded);

  // Insert in shuffled order; the hash router scatters keys across all
  // four shards, so an ordered scan result proves the k-way merge.
  for (const uint64_t id : kv::shuffled_ids(1200, /*seed=*/9)) {
    dict->put(kv::encode_key(id), kv::make_value(id, 30));
  }
  dict->flush();

  const auto rows = dict->range_scan(kv::encode_key(100), 300);
  ASSERT_EQ(rows.size(), 300u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].first, kv::encode_key(100 + i));
  }
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
}

INSTANTIATE_TEST_SUITE_P(Engines, ShardedRoutingTest,
                         testing::Values(kv::EngineKind::kBTree,
                                         kv::EngineKind::kBeTree,
                                         kv::EngineKind::kLsm,
                                         kv::EngineKind::kPdam),
                         [](const auto& info) {
                           std::string n(kv::engine_kind_name(info.param));
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

TEST(ShardedEngineTest, SingleShardIsTheBareEngine) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  kv::ShardedConfig sharded;
  sharded.shards = 1;
  const auto dict = kv::make_sharded_engine(kv::EngineKind::kBTree, dev, io,
                                            small_config(), sharded);
  // No router layer at all: this is the pre-refactor single-engine path.
  EXPECT_EQ(dict->name(), "btree");
  EXPECT_FALSE(dict->capabilities().sharded);
  EXPECT_EQ(dict->capabilities().shard_count, 1);
}

TEST(ShardedEngineTest, MetricsExportPerShardAndAggregate) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  kv::ShardedConfig sharded;
  sharded.shards = 4;
  const auto dict = kv::make_sharded_engine(kv::EngineKind::kPdam, dev, io,
                                            small_config(), sharded);
  uint64_t want_puts = 0;
  for (uint64_t i = 0; i < 800; ++i) {
    dict->put(kv::encode_key(i), kv::make_value(i, 40));
    ++want_puts;
  }
  dict->flush();

  stats::MetricsRegistry reg;
  dict->export_metrics(reg, "s.");
  EXPECT_EQ(reg.gauge("s.shards"), 4.0);
  // The pdam adapter counts puts per shard; the shard<i>. breakdown must
  // cover every routed op exactly once.
  uint64_t shard_puts = 0;
  for (int s = 0; s < 4; ++s) {
    const std::string name = strfmt("s.shard%d.puts", s);
    ASSERT_TRUE(reg.has_counter(name)) << name;
    EXPECT_GT(reg.counter(name), 0u) << "empty shard " << s;
    shard_puts += reg.counter(name);
  }
  EXPECT_EQ(shard_puts, want_puts);
}

TEST(ShardedEngineTest, ShardsSeeDisjointRegionsOfOneDevice) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  kv::ShardedConfig sharded;
  sharded.shards = 2;
  sharded.shard_stride_bytes = 1ULL << 30;
  kv::ShardedEngine engine(kv::EngineKind::kBTree, dev, io, small_config(),
                           sharded);
  for (uint64_t i = 0; i < 2000; ++i) {
    engine.put(kv::encode_key(i), kv::make_value(i, 50));
  }
  engine.flush();
  engine.check_invariants();  // both inner trees intact on the shared device
  for (uint64_t i = 0; i < 2000; i += 173) {
    EXPECT_EQ(engine.get(kv::encode_key(i)), kv::make_value(i, 50));
  }
}

}  // namespace
}  // namespace damkit
