// Randomized differential testing of the Bε-tree against std::map over a
// grid of node sizes, fanouts, cache pressures and flush policies —
// including upserts, which std::map models as read-modify-write.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>

#include "betree/betree.h"
#include "kv/slice.h"
#include "sim/hdd.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace damkit::betree {
namespace {

struct PropertyParam {
  uint64_t node_bytes;
  size_t fanout;
  uint64_t cache_nodes;
  size_t value_bytes;
  uint64_t key_space;
  FlushPolicy policy;
  uint64_t seed;
};

class BeTreePropertyTest : public testing::TestWithParam<PropertyParam> {};

TEST_P(BeTreePropertyTest, AgreesWithStdMap) {
  const PropertyParam p = GetParam();
  sim::HddConfig cfg;
  cfg.capacity_bytes = 4ULL * kGiB;
  sim::HddDevice dev(cfg, p.seed);
  sim::IoContext io(dev);
  BeTreeConfig tc;
  tc.node_bytes = p.node_bytes;
  tc.target_fanout = p.fanout;
  tc.cache_bytes = p.node_bytes * p.cache_nodes;
  tc.flush_policy = p.policy;
  BeTree tree(dev, io, tc);

  std::map<std::string, std::string> ref;
  Rng rng(p.seed * 31 + 1);
  constexpr int kOps = 4000;
  for (int i = 0; i < kOps; ++i) {
    const uint64_t id = rng.uniform(p.key_space);
    const std::string key = kv::encode_key(id);
    const double dice = rng.uniform_double();
    if (dice < 0.40) {
      const std::string value = kv::make_value(rng.next(), p.value_bytes);
      tree.put(key, value);
      ref[key] = value;
    } else if (dice < 0.55) {
      const int64_t delta = static_cast<int64_t>(rng.uniform(100));
      tree.upsert(key, delta);
      const auto it = ref.find(key);
      const uint64_t base =
          (it == ref.end()) ? 0 : kv::decode_counter(it->second);
      ref[key] = kv::encode_counter(base + static_cast<uint64_t>(delta));
    } else if (dice < 0.75) {
      const auto got = tree.get(key);
      const auto it = ref.find(key);
      if (it == ref.end()) {
        EXPECT_EQ(got, std::nullopt) << "op " << i;
      } else {
        EXPECT_EQ(got, it->second) << "op " << i;
      }
    } else if (dice < 0.9) {
      tree.erase(key);
      ref.erase(key);
    } else {
      const size_t limit = 1 + static_cast<size_t>(rng.uniform(15));
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

  // Post-flush full sweep.
  tree.flush();
  for (const auto& [k, v] : ref) EXPECT_EQ(tree.get(k), v);
  // Full scan agrees with the reference map exactly.
  const auto all = tree.range_scan("", ref.size() + 100);
  ASSERT_EQ(all.size(), ref.size());
  auto it = ref.begin();
  for (size_t i = 0; i < all.size(); ++i, ++it) {
    EXPECT_EQ(all[i].first, it->first);
    EXPECT_EQ(all[i].second, it->second);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BeTreePropertyTest,
    testing::Values(
        // Small nodes, small fanout: deep tree, constant flushing.
        PropertyParam{2048, 4, 64, 20, 400, FlushPolicy::kFullestChild, 1},
        // Heavy cache pressure.
        PropertyParam{4096, 6, 6, 30, 600, FlushPolicy::kFullestChild, 2},
        // Round-robin flushing ablation.
        PropertyParam{4096, 6, 32, 30, 600, FlushPolicy::kRoundRobin, 3},
        // Narrow key space: overwrite/delete churn, hot buffers.
        PropertyParam{4096, 8, 32, 50, 30, FlushPolicy::kFullestChild, 4},
        // Bigger nodes, ε=1/2-ish fanout.
        PropertyParam{64 * 1024, 0, 8, 100, 3000, FlushPolicy::kFullestChild,
                      5},
        // Large values relative to node size.
        PropertyParam{4096, 4, 32, 600, 150, FlushPolicy::kFullestChild, 6}),
    [](const testing::TestParamInfo<PropertyParam>& param) {
      return "node" + std::to_string(param.param.node_bytes) + "_f" +
             std::to_string(param.param.fanout) + "_cache" +
             std::to_string(param.param.cache_nodes) + "_val" +
             std::to_string(param.param.value_bytes) + "_keys" +
             std::to_string(param.param.key_space) + "_seed" +
             std::to_string(param.param.seed);
    });

}  // namespace
}  // namespace damkit::betree
