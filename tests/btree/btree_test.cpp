#include "btree/btree.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "kv/slice.h"
#include "sim/hdd.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace damkit::btree {
namespace {

class BTreeTest : public testing::Test {
 protected:
  BTreeTest() { reset(); }

  void reset(uint64_t node_bytes = 4096, uint64_t cache_bytes = 256 * kKiB) {
    sim::HddConfig cfg;
    cfg.capacity_bytes = 4ULL * kGiB;
    dev_ = std::make_unique<sim::HddDevice>(cfg, 1);
    io_ = std::make_unique<sim::IoContext>(*dev_);
    BTreeConfig tc;
    tc.node_bytes = node_bytes;
    tc.cache_bytes = cache_bytes;
    tree_ = std::make_unique<BTree>(*dev_, *io_, tc);
  }

  std::unique_ptr<sim::HddDevice> dev_;
  std::unique_ptr<sim::IoContext> io_;
  std::unique_ptr<BTree> tree_;
};

TEST_F(BTreeTest, EmptyTreeBehaviour) {
  EXPECT_EQ(tree_->get("missing"), std::nullopt);
  tree_->erase("missing");
  EXPECT_TRUE(tree_->range_scan("", 10).empty());
  EXPECT_EQ(tree_->size(), 0u);
}

TEST_F(BTreeTest, PutGetSingle) {
  tree_->put("hello", "world");
  EXPECT_EQ(tree_->get("hello"), "world");
  EXPECT_EQ(tree_->get("hell"), std::nullopt);
  EXPECT_EQ(tree_->size(), 1u);
}

TEST_F(BTreeTest, OverwriteReplaces) {
  tree_->put("k", "v1");
  tree_->put("k", "v2");
  EXPECT_EQ(tree_->get("k"), "v2");
  EXPECT_EQ(tree_->size(), 1u);
}

TEST_F(BTreeTest, ManyInsertsWithSplits) {
  constexpr uint64_t kN = 5000;
  for (uint64_t i = 0; i < kN; ++i) {
    tree_->put(kv::encode_key(i), kv::make_value(i, 20));
  }
  EXPECT_EQ(tree_->size(), kN);
  EXPECT_GT(tree_->height(), 1u);
  EXPECT_GT(tree_->op_stats().splits, 0u);
  tree_->check_invariants();
  for (uint64_t i = 0; i < kN; i += 97) {
    EXPECT_EQ(tree_->get(kv::encode_key(i)), kv::make_value(i, 20)) << i;
  }
}

TEST_F(BTreeTest, RandomOrderInsertsMatchReference) {
  std::map<std::string, std::string> ref;
  Rng rng(7);
  for (int i = 0; i < 3000; ++i) {
    const uint64_t id = rng.uniform(1000);
    const std::string k = kv::encode_key(id);
    const std::string v = kv::make_value(rng.next(), 24);
    tree_->put(k, v);
    ref[k] = v;
  }
  tree_->check_invariants();
  for (const auto& [k, v] : ref) EXPECT_EQ(tree_->get(k), v);
  EXPECT_EQ(tree_->size(), ref.size());
}

TEST_F(BTreeTest, EraseToEmpty) {
  for (uint64_t i = 0; i < 500; ++i) {
    tree_->put(kv::encode_key(i), "payload-value");
  }
  for (uint64_t i = 0; i < 500; ++i) {
    tree_->erase(kv::encode_key(i));
    EXPECT_EQ(tree_->size(), 499 - i) << i;
  }
  EXPECT_EQ(tree_->size(), 0u);
  for (uint64_t i = 0; i < 500; ++i) {
    EXPECT_EQ(tree_->get(kv::encode_key(i)), std::nullopt);
  }
  tree_->check_invariants();
}

TEST_F(BTreeTest, EraseTriggersMergesAndHeightCollapse) {
  constexpr uint64_t kN = 4000;
  for (uint64_t i = 0; i < kN; ++i) {
    tree_->put(kv::encode_key(i), kv::make_value(i, 30));
  }
  const size_t tall = tree_->height();
  ASSERT_GT(tall, 1u);
  // Delete all but a handful.
  for (uint64_t i = 0; i < kN - 10; ++i) {
    tree_->erase(kv::encode_key(i));
    ASSERT_EQ(tree_->size(), kN - 1 - i);
  }
  tree_->check_invariants();
  EXPECT_GT(tree_->op_stats().merges, 0u);
  EXPECT_LT(tree_->height(), tall);
  for (uint64_t i = kN - 10; i < kN; ++i) {
    EXPECT_EQ(tree_->get(kv::encode_key(i)), kv::make_value(i, 30));
  }
}

TEST_F(BTreeTest, ScanReturnsSortedRange) {
  for (uint64_t i = 0; i < 1000; ++i) {
    tree_->put(kv::encode_key(i * 2), kv::make_value(i, 10));
  }
  const auto out = tree_->range_scan(kv::encode_key(100), 50);
  ASSERT_EQ(out.size(), 50u);
  EXPECT_EQ(out[0].first, kv::encode_key(100));
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(kv::compare(out[i - 1].first, out[i].first), 0);
  }
  EXPECT_EQ(out[49].first, kv::encode_key(198));
}

TEST_F(BTreeTest, ScanFromBetweenKeysAndPastEnd) {
  for (uint64_t i = 0; i < 100; ++i) tree_->put(kv::encode_key(i * 10), "v");
  const auto mid = tree_->range_scan(kv::encode_key(15), 3);
  ASSERT_EQ(mid.size(), 3u);
  EXPECT_EQ(mid[0].first, kv::encode_key(20));
  const auto tail = tree_->range_scan(kv::encode_key(985), 100);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].first, kv::encode_key(990));
  EXPECT_TRUE(tree_->range_scan(kv::encode_key(2000), 10).empty());
}

TEST_F(BTreeTest, BulkLoadMatchesContents) {
  reset(4096);
  constexpr uint64_t kN = 20000;
  tree_->bulk_load(kN, [](uint64_t i) {
    return std::make_pair(kv::encode_key(i), kv::make_value(i, 16));
  });
  EXPECT_EQ(tree_->size(), kN);
  tree_->check_invariants();
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const uint64_t id = rng.uniform(kN);
    EXPECT_EQ(tree_->get(kv::encode_key(id)), kv::make_value(id, 16));
  }
  // Full scan sees every key in order.
  const auto all = tree_->range_scan("", kN + 10);
  ASSERT_EQ(all.size(), kN);
  EXPECT_EQ(all.front().first, kv::encode_key(0));
  EXPECT_EQ(all.back().first, kv::encode_key(kN - 1));
}

TEST_F(BTreeTest, BulkLoadThenMutate) {
  tree_->bulk_load(5000, [](uint64_t i) {
    return std::make_pair(kv::encode_key(i * 2), kv::make_value(i, 12));
  });
  tree_->put(kv::encode_key(1), "inserted");
  tree_->erase(kv::encode_key(10));
  tree_->check_invariants();
  EXPECT_EQ(tree_->get(kv::encode_key(1)), "inserted");
  EXPECT_EQ(tree_->get(kv::encode_key(10)), std::nullopt);
  EXPECT_EQ(tree_->size(), 5000u);
}

TEST_F(BTreeTest, IoPolicyScalarEvictionsBatchedCheckpoints) {
  // A fetch miss is one scalar read and a dirty eviction one scalar write.
  reset(4096, 4 * 4096);
  for (uint64_t i = 0; i < 2000; ++i) {
    tree_->put(kv::encode_key(i), kv::make_value(i, 40));
  }
  const cache::NodeCacheStats& cache = tree_->cache_stats();
  const blockdev::NodeStoreStats& store = tree_->store_stats();
  ASSERT_GT(cache.dirty_writebacks, 0u);
  EXPECT_EQ(store.node_writes, cache.dirty_writebacks);
  EXPECT_EQ(store.write_batches, 0u);
  EXPECT_EQ(store.node_reads, cache.misses);
  EXPECT_EQ(store.read_batches, 0u);

  // With no evictions every node is resident and dirty: a checkpoint
  // writes all of them as one batch, and a second one writes nothing.
  tree_.reset();  // flushes while its device is still alive
  reset(4096, 1 * kMiB);
  for (uint64_t i = 0; i < 2000; ++i) {
    tree_->put(kv::encode_key(i), kv::make_value(i, 40));
  }
  ASSERT_EQ(tree_->cache_stats().evictions, 0u);
  const uint64_t dirty = tree_->nodes_in_use();
  ASSERT_GT(dirty, 1u);
  ASSERT_TRUE(tree_->checkpoint().ok());
  ASSERT_TRUE(tree_->checkpoint().ok());
  EXPECT_EQ(tree_->store_stats().write_batches, 1u);
  EXPECT_EQ(tree_->store_stats().batched_writes, dirty);
  EXPECT_EQ(tree_->store_stats().node_writes, 0u);
}

TEST_F(BTreeTest, PersistsAcrossCacheEvictions) {
  // Cache barely larger than a node: every access misses.
  reset(4096, 4 * 4096);
  for (uint64_t i = 0; i < 2000; ++i) {
    tree_->put(kv::encode_key(i), kv::make_value(i, 40));
  }
  tree_->flush();
  EXPECT_GT(tree_->cache_stats().evictions, 0u);
  for (uint64_t i = 0; i < 2000; i += 53) {
    EXPECT_EQ(tree_->get(kv::encode_key(i)), kv::make_value(i, 40));
  }
  tree_->check_invariants();
}

TEST_F(BTreeTest, IoTimeAdvancesWithWork) {
  // A warm cache absorbs small working sets entirely (no device IO — the
  // correct behaviour); the flush must charge the deferred writes.
  const sim::SimTime start = io_->now();
  for (uint64_t i = 0; i < 500; ++i) {
    tree_->put(kv::encode_key(i), kv::make_value(i, 100));
  }
  tree_->flush();
  EXPECT_GT(io_->now(), start);
  // And with a cache under pressure, IO happens during the ops themselves.
  reset(4096, 4 * 4096);
  const sim::SimTime start2 = io_->now();
  for (uint64_t i = 0; i < 2000; ++i) {
    tree_->put(kv::encode_key(i), kv::make_value(i, 100));
  }
  EXPECT_GT(io_->now(), start2);
}

TEST_F(BTreeTest, LargeValuesNearNodeCapacity) {
  // Values big enough that a node holds only a couple of entries.
  reset(4096);
  for (uint64_t i = 0; i < 50; ++i) {
    tree_->put(kv::encode_key(i), kv::make_value(i, 1500));
  }
  tree_->check_invariants();
  for (uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(tree_->get(kv::encode_key(i)), kv::make_value(i, 1500));
  }
}

TEST_F(BTreeTest, OpStatsCount) {
  tree_->put("a", "1");
  tree_->get("a");
  tree_->get("b");
  tree_->erase("a");
  tree_->range_scan("", 10);
  const BTreeOpStats& s = tree_->op_stats();
  EXPECT_EQ(s.puts, 1u);
  EXPECT_EQ(s.gets, 2u);
  EXPECT_EQ(s.erases, 1u);
  EXPECT_EQ(s.scans, 1u);
}

TEST_F(BTreeTest, WriteAmplificationGrowsWithNodeSize) {
  // Lemma 3: B-tree write amp is Θ(B). Compare two node sizes.
  auto measure = [&](uint64_t node_bytes) {
    reset(node_bytes, 16 * node_bytes);
    tree_->bulk_load(20000, [](uint64_t i) {
      return std::make_pair(kv::encode_key(i), kv::make_value(i, 50));
    });
    dev_->clear_stats();
    Rng rng(5);
    for (int u = 0; u < 300; ++u) {
      const uint64_t id = rng.uniform(20000);
      tree_->put(kv::encode_key(id), kv::make_value(id + 1, 50));
    }
    tree_->flush();
    return static_cast<double>(dev_->stats().bytes_written) / (300.0 * 58.0);
  };
  const double small = measure(4096);
  const double big = measure(64 * kKiB);
  EXPECT_GT(big, small * 4);  // ~16x in theory; allow slack for caching
}

}  // namespace
}  // namespace damkit::btree
