// Property-style randomized testing: drive the B-tree and std::map with
// identical operation streams across a parameter grid and require
// identical observable behaviour plus intact structural invariants.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>

#include "btree/btree.h"
#include "kv/slice.h"
#include "sim/hdd.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace damkit::btree {
namespace {

struct PropertyParam {
  uint64_t node_bytes;
  uint64_t cache_nodes;  // cache = cache_nodes × node_bytes
  size_t value_bytes;
  uint64_t key_space;
  uint64_t seed;
};

class BTreePropertyTest : public testing::TestWithParam<PropertyParam> {};

TEST_P(BTreePropertyTest, AgreesWithStdMap) {
  const PropertyParam p = GetParam();
  sim::HddConfig cfg;
  cfg.capacity_bytes = 4ULL * kGiB;
  sim::HddDevice dev(cfg, p.seed);
  sim::IoContext io(dev);
  BTreeConfig tc;
  tc.node_bytes = p.node_bytes;
  tc.cache_bytes = p.node_bytes * p.cache_nodes;
  BTree tree(dev, io, tc);

  std::map<std::string, std::string> ref;
  Rng rng(p.seed);
  constexpr int kOps = 4000;
  for (int i = 0; i < kOps; ++i) {
    const uint64_t id = rng.uniform(p.key_space);
    const std::string key = kv::encode_key(id);
    const double dice = rng.uniform_double();
    if (dice < 0.5) {
      const std::string value = kv::make_value(rng.next(), p.value_bytes);
      tree.put(key, value);
      ref[key] = value;
    } else if (dice < 0.75) {
      const auto got = tree.get(key);
      const auto it = ref.find(key);
      if (it == ref.end()) {
        EXPECT_EQ(got, std::nullopt);
      } else {
        EXPECT_EQ(got, it->second);
      }
    } else if (dice < 0.9) {
      const uint64_t before = tree.size();
      tree.erase(key);
      EXPECT_EQ(before - tree.size(), ref.erase(key));
    } else {
      const size_t limit = 1 + static_cast<size_t>(rng.uniform(20));
      const auto got = tree.range_scan(key, limit);
      auto it = ref.lower_bound(key);
      size_t n = 0;
      for (; it != ref.end() && n < limit; ++it, ++n) {
        ASSERT_LT(n, got.size());
        EXPECT_EQ(got[n].first, it->first);
        EXPECT_EQ(got[n].second, it->second);
      }
      EXPECT_EQ(got.size(), n);
    }
  }
  EXPECT_EQ(tree.size(), ref.size());
  tree.check_invariants();

  // After a full flush everything still matches (exercises serialization
  // of every dirty node).
  tree.flush();
  for (const auto& [k, v] : ref) EXPECT_EQ(tree.get(k), v);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BTreePropertyTest,
    testing::Values(
        // Tiny nodes: deep tree, many splits/merges.
        PropertyParam{1024, 64, 16, 300, 1},
        PropertyParam{1024, 8, 16, 300, 2},   // heavy eviction
        // Small nodes, bigger values.
        PropertyParam{4096, 32, 120, 500, 3},
        // Narrow key space: constant overwrites and deletes.
        PropertyParam{4096, 16, 60, 40, 4},
        // Large nodes: shallow tree.
        PropertyParam{64 * 1024, 8, 100, 2000, 5},
        // Values near node capacity.
        PropertyParam{2048, 32, 400, 200, 6}),
    [](const testing::TestParamInfo<PropertyParam>& info) {
      return "node" + std::to_string(info.param.node_bytes) + "_cache" +
             std::to_string(info.param.cache_nodes) + "_val" +
             std::to_string(info.param.value_bytes) + "_keys" +
             std::to_string(info.param.key_space);
    });

}  // namespace
}  // namespace damkit::btree
