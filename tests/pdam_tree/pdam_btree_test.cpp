#include "pdam_tree/pdam_btree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.h"

namespace damkit::pdam_tree {
namespace {

std::vector<uint64_t> make_keys(uint64_t n, uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) k = rng.next() >> 1;  // leave headroom below +inf
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

PdamTreeConfig config(int p = 8, uint64_t block = 4096,
                      NodeLayout layout = NodeLayout::kVeb) {
  PdamTreeConfig cfg;
  cfg.parallelism = p;
  cfg.block_bytes = block;
  cfg.slot_bytes = 16;
  cfg.layout = layout;
  return cfg;
}

TEST(PdamBTreeTest, LowerBoundMatchesStd) {
  const auto keys = make_keys(10000);
  PdamBTree tree(keys, config());
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t q = rng.next() >> 1;
    const uint64_t expect = static_cast<uint64_t>(
        std::lower_bound(keys.begin(), keys.end(), q) - keys.begin());
    EXPECT_EQ(tree.lower_bound(q), expect) << q;
  }
  // Exact hits.
  for (size_t i = 0; i < keys.size(); i += 97) {
    EXPECT_EQ(tree.lower_bound(keys[i]), i);
  }
}

TEST(PdamBTreeTest, GeometrySane) {
  const auto keys = make_keys(100000);
  PdamBTree tree(keys, config(8, 4096));
  // 8 × 4096/16 = 2048 slots → pivot tree height 11, blocks ≈ 8.
  const PdamGeometry& g = tree.geometry();
  EXPECT_EQ(g.node_height, 11);
  EXPECT_EQ(g.node_blocks, 8u);
  EXPECT_GE(g.global_height, 17);
}

TEST(PdamBTreeTest, RunCompletesAllQueries) {
  const auto keys = make_keys(50000);
  PdamBTree tree(keys, config());
  const auto r = tree.run_queries(4, 50, 7);
  EXPECT_EQ(r.queries, 200u);
  EXPECT_GT(r.steps, 0u);
  EXPECT_GT(r.block_fetch_runs, 0u);
}

TEST(PdamBTreeTest, SingleClientStepsMatchNodeLevels) {
  // k=1 gets all P blocks per step: one step per PB-node level.
  const auto keys = make_keys(200000);
  PdamBTree tree(keys, config(8));
  const auto r = tree.run_queries(1, 100, 7);
  const double levels =
      std::ceil(static_cast<double>(tree.geometry().global_height) /
                static_cast<double>(tree.geometry().node_height));
  const double steps_per_query =
      static_cast<double>(r.steps) / static_cast<double>(r.queries);
  EXPECT_NEAR(steps_per_query, levels, levels * 0.25);
}

TEST(PdamBTreeTest, ThroughputGrowsWithClients) {
  const auto keys = make_keys(200000);
  PdamBTree tree(keys, config(8));
  double prev = 0.0;
  for (int k : {1, 2, 4, 8}) {
    const auto r = tree.run_queries(k, 200, 11);
    EXPECT_GT(r.throughput(), prev) << "k=" << k;
    prev = r.throughput();
  }
}

TEST(PdamBTreeTest, ThroughputSaturatesBeyondP) {
  const auto keys = make_keys(200000);
  PdamBTree tree(keys, config(4));
  const double at_p = tree.run_queries(4, 200, 11).throughput();
  const double beyond = tree.run_queries(16, 50, 11).throughput();
  // Beyond P, extra clients only wait; throughput must not grow much.
  EXPECT_LT(beyond, at_p * 1.3);
}

TEST(PdamBTreeTest, VebAtLeastAsGoodAsBfsForIntermediateClients) {
  const auto keys = make_keys(400000);
  PdamBTree veb(keys, config(16, 1024, NodeLayout::kVeb));
  PdamBTree bfs(keys, config(16, 1024, NodeLayout::kBfs));
  // Intermediate k: read-ahead window of P/k blocks is where vEB wins.
  for (int k : {2, 4}) {
    const double tv = veb.run_queries(k, 100, 13).throughput();
    const double tb = bfs.run_queries(k, 100, 13).throughput();
    EXPECT_GE(tv, tb * 0.99) << "k=" << k;
  }
}

TEST(PdamBTreeTest, DeterministicRuns) {
  const auto keys = make_keys(30000);
  PdamBTree tree(keys, config());
  const auto a = tree.run_queries(3, 100, 21);
  const auto b = tree.run_queries(3, 100, 21);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.block_fetch_runs, b.block_fetch_runs);
}

TEST(PdamBTreeTest, TinyTreeWorks) {
  const std::vector<uint64_t> keys{10, 20, 30};
  PdamBTree tree(keys, config(2, 1024));
  EXPECT_EQ(tree.lower_bound(5), 0u);
  EXPECT_EQ(tree.lower_bound(20), 1u);
  EXPECT_EQ(tree.lower_bound(25), 2u);
  EXPECT_EQ(tree.lower_bound(31), 3u);
  const auto r = tree.run_queries(2, 10, 3);
  EXPECT_EQ(r.queries, 20u);
}

TEST(PdamBTreeDeathTest, RejectsBadInput) {
  EXPECT_DEATH(PdamBTree({}, config()), "");
  EXPECT_DEATH(PdamBTree({3, 2, 1}, config()), "");
  const std::vector<uint64_t> keys{1, 2};
  PdamBTree tree(keys, config());
  EXPECT_DEATH(tree.run_queries(0, 10, 1), "");
}

}  // namespace
}  // namespace damkit::pdam_tree
