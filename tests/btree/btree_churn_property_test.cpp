// Lifecycle property sweep: bulk load → heavy churn → full verification,
// across a node-size ladder. Exercises the interaction of bulk-built
// structure with reactive splits/merges/borrows that the op-level
// property test (which starts empty) cannot reach.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "btree/btree.h"
#include "kv/slice.h"
#include "sim/hdd.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace damkit::btree {
namespace {

struct ChurnParam {
  uint64_t node_bytes;
  uint64_t items;
  size_t value_bytes;
  double delete_fraction;
  uint64_t seed;
};

class BTreeChurnTest : public testing::TestWithParam<ChurnParam> {};

TEST_P(BTreeChurnTest, BulkLoadThenChurnStaysCorrect) {
  const ChurnParam p = GetParam();
  sim::HddConfig cfg;
  cfg.capacity_bytes = 8ULL * kGiB;
  sim::HddDevice dev(cfg, p.seed);
  sim::IoContext io(dev);
  BTreeConfig tc;
  tc.node_bytes = p.node_bytes;
  tc.cache_bytes = std::max<uint64_t>(p.node_bytes * 6, 256 * kKiB);
  BTree tree(dev, io, tc);

  std::map<std::string, std::string> ref;
  tree.bulk_load(p.items, [&](uint64_t i) {
    auto kvp = std::make_pair(kv::encode_key(i * 2),
                              kv::make_value(i, p.value_bytes));
    ref.insert(kvp);
    return kvp;
  });
  tree.check_invariants();

  // Churn: new keys (odd ids force splits), overwrites, deletes.
  Rng rng(p.seed * 7 + 1);
  const uint64_t ops = p.items;  // 1:1 churn
  for (uint64_t i = 0; i < ops; ++i) {
    const uint64_t id = rng.uniform(4 * p.items);
    const std::string key = kv::encode_key(id);
    if (rng.uniform_double() < p.delete_fraction) {
      const uint64_t before = tree.size();
      tree.erase(key);
      EXPECT_EQ(before - tree.size(), ref.erase(key));
    } else {
      const std::string value = kv::make_value(rng.next(), p.value_bytes);
      tree.put(key, value);
      ref[key] = value;
    }
  }
  tree.check_invariants();
  EXPECT_EQ(tree.size(), ref.size());

  // Sampled point verification + one long scan against the reference.
  Rng probe(p.seed * 13 + 5);
  for (int q = 0; q < 300; ++q) {
    const std::string key = kv::encode_key(probe.uniform(4 * p.items));
    const auto got = tree.get(key);
    const auto it = ref.find(key);
    if (it == ref.end()) {
      EXPECT_EQ(got, std::nullopt);
    } else {
      EXPECT_EQ(got, it->second);
    }
  }
  const std::string lo = kv::encode_key(p.items / 2);
  const auto scan = tree.range_scan(lo, 500);
  auto it = ref.lower_bound(lo);
  for (size_t i = 0; i < scan.size(); ++i, ++it) {
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(scan[i].first, it->first);
    EXPECT_EQ(scan[i].second, it->second);
  }

  // Flush everything and verify once more from clean cache state.
  tree.flush();
  for (int q = 0; q < 100; ++q) {
    const std::string key = kv::encode_key(probe.uniform(4 * p.items));
    const auto it2 = ref.find(key);
    if (it2 == ref.end()) {
      EXPECT_EQ(tree.get(key), std::nullopt);
    } else {
      EXPECT_EQ(tree.get(key), it2->second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ladder, BTreeChurnTest,
    testing::Values(ChurnParam{2048, 2000, 24, 0.2, 1},
                    ChurnParam{4096, 4000, 50, 0.3, 2},
                    ChurnParam{16 * 1024, 6000, 80, 0.25, 3},
                    ChurnParam{64 * 1024, 8000, 100, 0.4, 4},
                    // Delete-dominated: drives merges/borrows hard.
                    ChurnParam{4096, 4000, 40, 0.7, 5}),
    [](const testing::TestParamInfo<ChurnParam>& info) {
      return "node" + std::to_string(info.param.node_bytes) + "_items" +
             std::to_string(info.param.items) + "_del" +
             std::to_string(static_cast<int>(info.param.delete_fraction *
                                             100)) +
             "_seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace damkit::btree
