#include "betree/betree.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>

#include "kv/slice.h"
#include "sim/hdd.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace damkit::betree {
namespace {

class BeTreeTest : public testing::Test {
 protected:
  BeTreeTest() { reset(); }

  void reset(uint64_t node_bytes = 8192, size_t fanout = 8,
             uint64_t cache_bytes = 1 * kMiB,
             FlushPolicy policy = FlushPolicy::kFullestChild) {
    sim::HddConfig cfg;
    cfg.capacity_bytes = 4ULL * kGiB;
    dev_ = std::make_unique<sim::HddDevice>(cfg, 1);
    io_ = std::make_unique<sim::IoContext>(*dev_);
    BeTreeConfig tc;
    tc.node_bytes = node_bytes;
    tc.target_fanout = fanout;
    tc.cache_bytes = cache_bytes;
    tc.flush_policy = policy;
    tree_ = std::make_unique<BeTree>(*dev_, *io_, tc);
  }

  std::unique_ptr<sim::HddDevice> dev_;
  std::unique_ptr<sim::IoContext> io_;
  std::unique_ptr<BeTree> tree_;
};

TEST_F(BeTreeTest, EmptyTree) {
  EXPECT_EQ(tree_->get("k"), std::nullopt);
  EXPECT_TRUE(tree_->range_scan("", 5).empty());
}

TEST_F(BeTreeTest, PutGetSingle) {
  tree_->put("hello", "world");
  EXPECT_EQ(tree_->get("hello"), "world");
  EXPECT_EQ(tree_->get("h"), std::nullopt);
}

TEST_F(BeTreeTest, ManyInsertsQueryThroughBuffers) {
  constexpr uint64_t kN = 5000;
  for (uint64_t i = 0; i < kN; ++i) {
    tree_->put(kv::encode_key(i), kv::make_value(i, 20));
  }
  EXPECT_GT(tree_->height(), 1u);
  EXPECT_GT(tree_->op_stats().flushes, 0u);
  tree_->check_invariants();
  for (uint64_t i = 0; i < kN; i += 31) {
    EXPECT_EQ(tree_->get(kv::encode_key(i)), kv::make_value(i, 20)) << i;
  }
}

TEST_F(BeTreeTest, NewestMessageWins) {
  // Write the same key many times with filler between, so older versions
  // sink into deeper buffers while the newest stays near the root.
  for (uint64_t round = 0; round < 50; ++round) {
    tree_->put("hot-key", "v" + std::to_string(round));
    for (uint64_t i = 0; i < 100; ++i) {
      tree_->put(kv::encode_key(round * 100 + i), "filler-value");
    }
  }
  EXPECT_EQ(tree_->get("hot-key"), "v49");
}

TEST_F(BeTreeTest, TombstoneDeletes) {
  for (uint64_t i = 0; i < 1000; ++i) {
    tree_->put(kv::encode_key(i), "value");
  }
  for (uint64_t i = 0; i < 1000; i += 2) {
    tree_->erase(kv::encode_key(i));
  }
  for (uint64_t i = 0; i < 1000; ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(tree_->get(kv::encode_key(i)), std::nullopt) << i;
    } else {
      EXPECT_EQ(tree_->get(kv::encode_key(i)), "value") << i;
    }
  }
  tree_->check_invariants();
}

TEST_F(BeTreeTest, EraseOfAbsentKeyHarmless) {
  tree_->put("a", "1");
  tree_->erase("never-existed");
  EXPECT_EQ(tree_->get("a"), "1");
  EXPECT_EQ(tree_->get("never-existed"), std::nullopt);
}

TEST_F(BeTreeTest, UpsertsAccumulateWithoutReads) {
  for (int i = 0; i < 500; ++i) tree_->upsert("counter", 2);
  const auto v = tree_->get("counter");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(kv::decode_counter(*v), 1000u);
}

TEST_F(BeTreeTest, UpsertsInterleavedWithFiller) {
  for (uint64_t i = 0; i < 300; ++i) {
    tree_->upsert(kv::encode_key(7), 1);
    tree_->put(kv::encode_key(1000 + i), "filler-filler-filler");
  }
  const auto v = tree_->get(kv::encode_key(7));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(kv::decode_counter(*v), 300u);
  tree_->check_invariants();
}

TEST_F(BeTreeTest, ScanSeesBufferedAndLeafState) {
  // Bulk some keys to the leaves, then overlay buffered changes.
  tree_->bulk_load(1000, [](uint64_t i) {
    return std::make_pair(kv::encode_key(i * 2), std::string("base"));
  });
  tree_->put(kv::encode_key(11), "buffered-insert");   // new key
  tree_->erase(kv::encode_key(12));                    // delete leaf key
  tree_->put(kv::encode_key(14), "buffered-update");   // overwrite leaf key
  const auto out = tree_->range_scan(kv::encode_key(10), 4);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].first, kv::encode_key(10));
  EXPECT_EQ(out[0].second, "base");
  EXPECT_EQ(out[1].first, kv::encode_key(11));
  EXPECT_EQ(out[1].second, "buffered-insert");
  EXPECT_EQ(out[2].first, kv::encode_key(14));
  EXPECT_EQ(out[2].second, "buffered-update");
  EXPECT_EQ(out[3].first, kv::encode_key(16));
}

TEST_F(BeTreeTest, ScanHonorsLimitAcrossLeaves) {
  for (uint64_t i = 0; i < 3000; ++i) {
    tree_->put(kv::encode_key(i), "v");
  }
  const auto out = tree_->range_scan(kv::encode_key(100), 500);
  ASSERT_EQ(out.size(), 500u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].first, kv::encode_key(100 + i));
  }
}

TEST_F(BeTreeTest, BulkLoadThenPointQueries) {
  constexpr uint64_t kN = 20000;
  tree_->bulk_load(kN, [](uint64_t i) {
    return std::make_pair(kv::encode_key(i), kv::make_value(i, 16));
  });
  tree_->check_invariants();
  Rng rng(9);
  for (int i = 0; i < 300; ++i) {
    const uint64_t id = rng.uniform(kN);
    EXPECT_EQ(tree_->get(kv::encode_key(id)), kv::make_value(id, 16));
  }
}

TEST_F(BeTreeTest, PersistsAcrossEvictions) {
  reset(8192, 8, 8 * 8192);  // tiny cache
  for (uint64_t i = 0; i < 3000; ++i) {
    tree_->put(kv::encode_key(i), kv::make_value(i, 30));
  }
  tree_->flush();
  EXPECT_GT(tree_->cache_stats().evictions, 0u);
  for (uint64_t i = 0; i < 3000; i += 41) {
    EXPECT_EQ(tree_->get(kv::encode_key(i)), kv::make_value(i, 30));
  }
  tree_->check_invariants();
}

TEST_F(BeTreeTest, RoundRobinFlushPolicyWorks) {
  reset(8192, 8, 1 * kMiB, FlushPolicy::kRoundRobin);
  for (uint64_t i = 0; i < 4000; ++i) {
    tree_->put(kv::encode_key(i), kv::make_value(i, 25));
  }
  tree_->check_invariants();
  for (uint64_t i = 0; i < 4000; i += 61) {
    EXPECT_EQ(tree_->get(kv::encode_key(i)), kv::make_value(i, 25));
  }
}

TEST_F(BeTreeTest, DefaultFanoutFollowsSqrtB) {
  sim::HddConfig cfg;
  cfg.capacity_bytes = 1ULL * kGiB;
  sim::HddDevice dev(cfg, 1);
  sim::IoContext io(dev);
  BeTreeConfig tc;
  tc.node_bytes = 1 * kMiB;
  tc.target_fanout = 0;  // derive
  tc.pivot_estimate_bytes = 16;
  BeTree t(dev, io, tc);
  const double expected = std::sqrt(1.0 * kMiB / 16);
  EXPECT_NEAR(static_cast<double>(t.target_fanout()), expected, 2.0);
}

TEST_F(BeTreeTest, InsertsCheaperThanBTreeStyleUpdateIo) {
  // The defining Bε-tree property: amortized device IO per insert is far
  // below one whole-node write. 5000 inserts with a cold cache.
  reset(16 * kKiB, 16, 512 * kKiB);
  constexpr uint64_t kN = 20000;
  tree_->bulk_load(kN, [](uint64_t i) {
    return std::make_pair(kv::encode_key(i * 2), kv::make_value(i, 30));
  });
  dev_->clear_stats();
  Rng rng(3);
  constexpr int kOps = 2000;
  for (int i = 0; i < kOps; ++i) {
    const uint64_t id = rng.uniform(2 * kN);
    tree_->put(kv::encode_key(id), kv::make_value(id, 30));
  }
  tree_->flush();
  const double node_writes_per_op =
      static_cast<double>(dev_->stats().bytes_written) / (16.0 * kKiB) / kOps;
  // A B-tree would write ~1 node per op at this cache pressure; the
  // Bε-tree amortizes flushes across F messages.
  EXPECT_LT(node_writes_per_op, 0.6);
}

TEST_F(BeTreeTest, DeepTreeQueriesSeeAllBufferLevels) {
  // Force height >= 3 so queries must merge messages from buffers at
  // multiple internal levels.
  reset(4096, 4, 1 * kMiB);
  for (uint64_t i = 0; i < 8000; ++i) {
    tree_->put(kv::encode_key(i), kv::make_value(i, 20));
  }
  ASSERT_GE(tree_->height(), 3u);
  // Overlay newer versions that stay buffered at various depths.
  for (uint64_t i = 0; i < 8000; i += 5) {
    tree_->put(kv::encode_key(i), "overlay");
  }
  tree_->check_invariants();
  for (uint64_t i = 0; i < 8000; i += 97) {
    if (i % 5 == 0) {
      EXPECT_EQ(tree_->get(kv::encode_key(i)), "overlay") << i;
    } else {
      EXPECT_EQ(tree_->get(kv::encode_key(i)), kv::make_value(i, 20)) << i;
    }
  }
  const auto out = tree_->range_scan(kv::encode_key(100), 10);
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(out[0].second, "overlay");           // key 100 (mult of 5)
  EXPECT_EQ(out[1].second, kv::make_value(101, 20));
}

TEST_F(BeTreeTest, StatsCount) {
  tree_->put("a", "1");
  tree_->get("a");
  tree_->erase("a");
  tree_->upsert("c", 1);
  tree_->range_scan("", 3);
  const BeTreeOpStats& s = tree_->op_stats();
  EXPECT_EQ(s.puts, 1u);
  EXPECT_EQ(s.gets, 1u);
  EXPECT_EQ(s.erases, 1u);
  EXPECT_EQ(s.upserts, 1u);
  EXPECT_EQ(s.scans, 1u);
}

TEST_F(BeTreeTest, HeavyDeleteShrinksViaLeafMerges) {
  for (uint64_t i = 0; i < 5000; ++i) {
    tree_->put(kv::encode_key(i), kv::make_value(i, 40));
  }
  for (uint64_t i = 0; i < 4900; ++i) {
    tree_->erase(kv::encode_key(i));
  }
  // Force tombstones down so merges can happen.
  for (uint64_t i = 0; i < 2000; ++i) {
    tree_->put(kv::encode_key(100000 + i), "fresh");
  }
  tree_->check_invariants();
  EXPECT_GT(tree_->op_stats().leaf_merges, 0u);
  for (uint64_t i = 4900; i < 5000; ++i) {
    EXPECT_EQ(tree_->get(kv::encode_key(i)), kv::make_value(i, 40));
  }
}

}  // namespace
}  // namespace damkit::betree
