// Differential testing of the LSM-tree against std::map across a grid of
// memtable/SSTable/level geometries.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <optional>

#include "kv/slice.h"
#include "lsm/lsm_tree.h"
#include "sim/hdd.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace damkit::lsm {
namespace {

struct PropertyParam {
  uint64_t memtable_bytes;
  uint64_t sstable_bytes;
  uint64_t level1_bytes;
  double size_ratio;
  uint64_t key_space;
  size_t value_bytes;
  CompactionStyle style;
  uint64_t seed;
};

class LsmPropertyTest : public testing::TestWithParam<PropertyParam> {};

TEST_P(LsmPropertyTest, AgreesWithStdMap) {
  const PropertyParam p = GetParam();
  sim::HddConfig cfg;
  cfg.capacity_bytes = 8ULL * kGiB;
  sim::HddDevice dev(cfg, p.seed);
  sim::IoContext io(dev);
  LsmConfig lc;
  lc.memtable_bytes = p.memtable_bytes;
  lc.sstable_target_bytes = p.sstable_bytes;
  lc.block_bytes = 1024;
  lc.level0_limit = 3;
  lc.level1_bytes = p.level1_bytes;
  lc.size_ratio = p.size_ratio;
  lc.style = p.style;
  LsmTree tree(dev, io, lc);

  std::map<std::string, std::string> ref;
  Rng rng(p.seed);
  constexpr int kOps = 6000;
  for (int i = 0; i < kOps; ++i) {
    const uint64_t id = rng.uniform(p.key_space);
    const std::string key = kv::encode_key(id);
    const double dice = rng.uniform_double();
    if (dice < 0.5) {
      const std::string value = kv::make_value(rng.next(), p.value_bytes);
      tree.put(key, value);
      ref[key] = value;
    } else if (dice < 0.7) {
      const auto got = tree.get(key);
      const auto it = ref.find(key);
      if (it == ref.end()) {
        EXPECT_EQ(got, std::nullopt) << "op " << i;
      } else {
        EXPECT_EQ(got, it->second) << "op " << i;
      }
    } else if (dice < 0.88) {
      tree.erase(key);
      ref.erase(key);
    } else {
      const size_t limit = 1 + static_cast<size_t>(rng.uniform(12));
      const auto got = tree.range_scan(key, limit);
      auto it = ref.lower_bound(key);
      size_t n = 0;
      for (; it != ref.end() && n < limit; ++it, ++n) {
        ASSERT_LT(n, got.size()) << "op " << i;
        EXPECT_EQ(got[n].first, it->first) << "op " << i;
        EXPECT_EQ(got[n].second, it->second) << "op " << i;
      }
      EXPECT_EQ(got.size(), n) << "op " << i;
    }
  }
  tree.check_invariants();
  tree.flush();
  tree.check_invariants();
  for (const auto& [k, v] : ref) EXPECT_EQ(tree.get(k), v);
  const auto all = tree.range_scan("", ref.size() + 50);
  ASSERT_EQ(all.size(), ref.size());
  auto it = ref.begin();
  for (size_t i = 0; i < all.size(); ++i, ++it) {
    EXPECT_EQ(all[i].first, it->first);
    EXPECT_EQ(all[i].second, it->second);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LsmPropertyTest,
    testing::Values(
        // Tiny memtables: constant flushing and L0 churn.
        PropertyParam{2048, 8192, 32 * 1024, 4.0, 400, 24,
                      CompactionStyle::kLeveled, 1},
        // Narrow key space: heavy shadowing and tombstone churn.
        PropertyParam{4096, 8192, 32 * 1024, 3.0, 50, 40,
                      CompactionStyle::kLeveled, 2},
        // Larger tables relative to levels: few, fat runs.
        PropertyParam{8192, 64 * 1024, 64 * 1024, 4.0, 1000, 60,
                      CompactionStyle::kLeveled, 3},
        // Aggressive ratio: shallow tree.
        PropertyParam{4096, 16 * 1024, 128 * 1024, 10.0, 800, 32,
                      CompactionStyle::kLeveled, 4},
        // Big values.
        PropertyParam{16 * 1024, 32 * 1024, 128 * 1024, 4.0, 200, 400,
                      CompactionStyle::kLeveled, 5},
        // Tiered compaction: overlapping runs at every level.
        PropertyParam{2048, 8192, 32 * 1024, 4.0, 400, 24,
                      CompactionStyle::kTiered, 6},
        PropertyParam{4096, 8192, 32 * 1024, 3.0, 50, 40,
                      CompactionStyle::kTiered, 7},
        PropertyParam{8192, 32 * 1024, 64 * 1024, 4.0, 1200, 48,
                      CompactionStyle::kTiered, 8}),
    [](const testing::TestParamInfo<PropertyParam>& param_info) {
      const PropertyParam& p = param_info.param;
      return "mem" + std::to_string(p.memtable_bytes) + "_sst" +
             std::to_string(p.sstable_bytes) + "_l1" +
             std::to_string(p.level1_bytes) + "_r" +
             std::to_string(static_cast<int>(p.size_ratio)) + "_keys" +
             std::to_string(p.key_space) + "_val" +
             std::to_string(p.value_bytes) +
             (p.style == CompactionStyle::kTiered ? "_tiered" : "_leveled");
    });

}  // namespace
}  // namespace damkit::lsm
