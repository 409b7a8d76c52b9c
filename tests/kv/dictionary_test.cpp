// kv::Dictionary contract tests, run against every engine the factory can
// build: the engines must agree on observable results (only simulated cost
// may differ between engines).
#include "kv/dictionary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "kv/engine.h"
#include "kv/sharded_engine.h"
#include "kv/slice.h"
#include "sim/fault_injection.h"
#include "sim/profiles.h"
#include "sim/ssd.h"
#include "stats/metrics.h"
#include "util/bytes.h"
#include "wal/durable_engine.h"

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

TEST(EngineKindTest, NamesRoundTrip) {
  for (const kv::EngineKind kind : kv::kAllEngineKinds) {
    const auto parsed = kv::parse_engine_kind(kv::engine_kind_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(kv::parse_engine_kind("rope").has_value());
  EXPECT_FALSE(kv::parse_engine_kind("").has_value());
}

class DictionaryContractTest : public testing::TestWithParam<kv::EngineKind> {
};

TEST_P(DictionaryContractTest, PutGetEraseFlush) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  const auto dict = kv::make_engine(GetParam(), dev, io, small_config());

  EXPECT_EQ(dict->name(), kv::engine_kind_name(GetParam()));
  for (uint64_t i = 0; i < 2000; ++i) {
    dict->put(kv::encode_key(i), kv::make_value(i, 40));
  }
  dict->flush();
  dict->check_invariants();
  for (uint64_t i = 0; i < 2000; i += 97) {
    EXPECT_EQ(dict->get(kv::encode_key(i)), kv::make_value(i, 40)) << i;
  }
  EXPECT_FALSE(dict->get(kv::encode_key(999999)).has_value());

  dict->erase(kv::encode_key(42));
  EXPECT_FALSE(dict->get(kv::encode_key(42)).has_value());
  dict->put(kv::encode_key(42), "back");
  EXPECT_EQ(dict->get(kv::encode_key(42)), "back");

  EXPECT_GT(dict->height(), 0u);
  EXPECT_GE(dict->cache_hit_rate(), 0.0);
  EXPECT_LE(dict->cache_hit_rate(), 1.0);
}

TEST_P(DictionaryContractTest, UpsertCounterSemantics) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  const auto dict = kv::make_engine(GetParam(), dev, io, small_config());

  // Absent key counts from zero; repeated deltas accumulate identically
  // whether the engine applies them natively (blind message) or emulates
  // read-modify-write — that's the Capabilities contract.
  dict->upsert("ctr", 5);
  dict->upsert("ctr", 7);
  dict->upsert("ctr", -2);
  dict->flush();
  const auto value = dict->get("ctr");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(kv::decode_counter(*value), 10u);
}

TEST_P(DictionaryContractTest, RangeScanOrderedAndLimited) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  const auto dict = kv::make_engine(GetParam(), dev, io, small_config());

  dict->bulk_load(1000, [](uint64_t i) {
    return std::make_pair(kv::encode_key(i), kv::make_value(i, 30));
  });
  const auto rows = dict->range_scan(kv::encode_key(10), 50);
  ASSERT_EQ(rows.size(), 50u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].first, kv::encode_key(10 + i));
    if (i > 0) EXPECT_LT(rows[i - 1].first, rows[i].first);
  }
  EXPECT_TRUE(dict->range_scan(kv::encode_key(2000), 10).empty());
}

TEST_P(DictionaryContractTest, TryTwinsSucceedOnCleanDevice) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  const auto dict = kv::make_engine(GetParam(), dev, io, small_config());

  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(dict->try_put(kv::encode_key(i), kv::make_value(i, 40)).ok());
  }
  ASSERT_TRUE(dict->try_upsert("ctr", 3).ok());
  const auto got = dict->try_get(kv::encode_key(7));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, kv::make_value(7, 40));
  ASSERT_TRUE(dict->try_erase(kv::encode_key(7)).ok());
  const auto scan = dict->try_range_scan(kv::encode_key(0), 20);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->empty());
  EXPECT_TRUE(dict->checkpoint().ok());

  // Clean device: nothing to retry, nothing given up.
  EXPECT_EQ(dict->retry_counters().retries, 0u);
  EXPECT_EQ(dict->retry_counters().give_ups, 0u);
}

TEST_P(DictionaryContractTest, MetricsExportUnderPrefix) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  const auto dict = kv::make_engine(GetParam(), dev, io, small_config());
  for (uint64_t i = 0; i < 200; ++i) {
    dict->put(kv::encode_key(i), kv::make_value(i, 40));
  }
  dict->flush();

  stats::MetricsRegistry reg;
  dict->export_metrics(reg, "x.");
  // Every engine exports *something*, all of it under the caller's prefix.
  EXPECT_FALSE(reg.empty());
  reg.for_each_counter([](const std::string& name, uint64_t) {
    EXPECT_EQ(name.rfind("x.", 0), 0u) << name;
  });
  reg.for_each_gauge([](const std::string& name, double) {
    EXPECT_EQ(name.rfind("x.", 0), 0u) << name;
  });
}

TEST_P(DictionaryContractTest, CapabilitiesDescribeSingleEngine) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  const auto dict = kv::make_engine(GetParam(), dev, io, small_config());
  const kv::Capabilities& caps = dict->capabilities();
  EXPECT_FALSE(caps.sharded);
  EXPECT_EQ(caps.shard_count, 1);
  EXPECT_TRUE(caps.ordered_scans);
  if (GetParam() == kv::EngineKind::kBeTree ||
      GetParam() == kv::EngineKind::kOptBeTree) {
    EXPECT_TRUE(caps.native_upsert);
  }
  if (GetParam() == kv::EngineKind::kBTree) {
    EXPECT_FALSE(caps.native_upsert);
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, DictionaryContractTest,
                         testing::ValuesIn(kv::kAllEngineKinds),
                         [](const auto& info) {
                           return std::string(
                               kv::engine_kind_name(info.param)) == "opt-betree"
                                      ? std::string("opt_betree")
                                      : std::string(
                                            kv::engine_kind_name(info.param));
                         });

// The infallible forms are written once, in kv::Dictionary, over each
// engine's try_* surface. Once the device has crashed, every engine and
// both wrappers must abort through them, printing the try_* status.
std::unique_ptr<kv::Dictionary> make_stack(
    const std::string& stack, sim::Device& dev, sim::IoContext& io,
    const kv::EngineConfig& cfg = small_config()) {
  if (stack == "sharded") {
    kv::ShardedConfig two;
    two.shards = 2;
    return kv::make_sharded_engine(kv::EngineKind::kBTree, dev, io, cfg, two);
  }
  if (stack == "durable") {
    const wal::DurabilityConfig durability =
        wal::default_durability_config(dev.capacity_bytes());
    auto inner = kv::make_engine(kv::EngineKind::kLsm, dev, io, cfg);
    return wal::make_durable(std::move(inner), dev, io, durability);
  }
  return kv::make_engine(*kv::parse_engine_kind(stack), dev, io, cfg);
}

// Every engine kind plus the two wrappers.
std::vector<std::string> all_stacks() {
  std::vector<std::string> stacks;
  for (const kv::EngineKind kind : kv::kAllEngineKinds) {
    stacks.emplace_back(kv::engine_kind_name(kind));
  }
  stacks.push_back("sharded");
  stacks.push_back("durable");
  return stacks;
}

std::string stack_test_name(const testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

class CrashedDictionaryDeathTest
    : public testing::TestWithParam<std::string> {};

TEST_P(CrashedDictionaryDeathTest, InfallibleFormsAbortWithTheTryStatus) {
  sim::SsdDevice inner(sim::testbed_ssd_profile());
  sim::FaultInjectingDevice dev(inner, sim::FaultConfig{});
  sim::IoContext io(dev);
  const auto dict = make_stack(GetParam(), dev, io);
  dict->bulk_load(3000, [](uint64_t i) {
    return std::make_pair(kv::encode_key(i), kv::make_value(i, 40));
  });
  dict->put(kv::encode_key(1), "dirty");  // write-back work for flush()
  dev.set_crash_at(dev.checked_ios() + 1);

  const char* crashed = "(unavailable|corruption): device (is )?crashed";
  EXPECT_DEATH(dict->flush(), crashed);
  // Key 1500 is far from the cached path to key 1 and from the memtable.
  EXPECT_DEATH((void)dict->get(kv::encode_key(1500)), crashed);
  EXPECT_DEATH((void)dict->range_scan(kv::encode_key(1500), 10), crashed);
  dict->abandon();  // the device is dead: drop dirty state unwritten
}

INSTANTIATE_TEST_SUITE_P(AllStacks, CrashedDictionaryDeathTest,
                         testing::ValuesIn(all_stacks()), stack_test_name);

// Every stored record carries a u16 key length, so keys are at most
// 65,535 bytes. A longer key is rejected before anything is logged or
// stored, and the dictionary is left unchanged; a key at the limit
// survives a checkpoint. 1 MiB nodes leave room for entries of that size.
constexpr size_t kKeyLimit = 65535;

kv::EngineConfig large_node_config() {
  kv::EngineConfig cfg = small_config();
  cfg.btree.node_bytes = kMiB;
  cfg.btree.cache_bytes = 8 * kMiB;
  cfg.betree.node_bytes = kMiB;
  cfg.betree.cache_bytes = 8 * kMiB;
  return cfg;
}

std::pair<std::string, std::string> numbered_row(uint64_t i) {
  return std::make_pair(kv::encode_key(i), kv::make_value(i, 40));
}

class KeyLimitTest : public testing::TestWithParam<std::string> {};

TEST_P(KeyLimitTest, LongerKeysAreRejectedAndChangeNothing) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  const auto dict = make_stack(GetParam(), dev, io, large_node_config());
  for (uint64_t i = 0; i < 300; ++i) {
    const auto [key, value] = numbered_row(i);
    dict->put(key, value);
  }
  const auto before = dict->range_scan("", 1000);
  ASSERT_EQ(before.size(), 300u);

  const std::string key(kKeyLimit + 1, 'k');
  EXPECT_EQ(dict->try_put(key, "v").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dict->try_erase(key).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dict->try_upsert(key, 1).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(dict->checkpoint().ok());
  EXPECT_EQ(dict->range_scan("", 1000), before);
  EXPECT_FALSE(dict->get(key).has_value());
  dict->check_invariants();
}

TEST_P(KeyLimitTest, KeyAtTheLimitSurvivesACheckpoint) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  const auto dict = make_stack(GetParam(), dev, io, large_node_config());
  const std::string key(kKeyLimit, 'k');
  dict->put(kv::encode_key(1), "before");
  ASSERT_TRUE(dict->try_put(key, "at-the-limit").ok());
  dict->put(std::string(kKeyLimit, 'z'), "after");
  ASSERT_TRUE(dict->checkpoint().ok());

  EXPECT_EQ(dict->get(key), "at-the-limit");
  const auto rows = dict->range_scan("", 10);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].second, "before");
  EXPECT_EQ(rows[1].first, key);
  EXPECT_EQ(rows[1].second, "at-the-limit");
  EXPECT_EQ(rows[2].first.size(), kKeyLimit);
  dict->check_invariants();
}

INSTANTIATE_TEST_SUITE_P(AllStacks, KeyLimitTest,
                         testing::ValuesIn(all_stacks()), stack_test_name);

class KeyLimitDeathTest : public testing::TestWithParam<std::string> {};

TEST_P(KeyLimitDeathTest, BulkLoadChecksTheLimit) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  const auto dict = make_stack(GetParam(), dev, io, large_node_config());
  const auto rows = [](uint64_t i) {
    if (i == 0) return numbered_row(0);
    return std::make_pair(std::string(kKeyLimit + 1, 'k'), std::string("v"));
  };
  // The encoders' CHECK, or the try_put status for an engine that loads
  // through puts.
  EXPECT_DEATH(dict->bulk_load(2, rows),
               "kMaxKeyBytes|65535-byte record key limit");
}

INSTANTIATE_TEST_SUITE_P(AllStacks, KeyLimitDeathTest,
                         testing::ValuesIn(all_stacks()), stack_test_name);

}  // namespace
}  // namespace damkit
