#include "betree/betree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kv/slice.h"
#include "sim/hdd.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/table.h"

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
    tree_->put("hot-key",
               strfmt("v%llu", static_cast<unsigned long long>(round)));
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

TEST_F(BeTreeTest, IoPolicyScalarEvictionsBatchedCheckpoints) {
  // A fetch miss is one scalar read and a dirty eviction one scalar write.
  reset(8192, 8, 8 * 8192);
  for (uint64_t i = 0; i < 3000; ++i) {
    tree_->put(kv::encode_key(i), kv::make_value(i, 30));
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
  reset();
  for (uint64_t i = 0; i < 3000; ++i) {
    tree_->put(kv::encode_key(i), kv::make_value(i, 30));
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

TEST_F(BeTreeTest, ScanPrefetchIsOneReadBatch) {
  // Bulk load leaves every node cold. A short scan reads the root, then
  // prefetches its first two children as one batch and reads no more.
  tree_->bulk_load(800, [](uint64_t i) {
    return std::make_pair(kv::encode_key(i), kv::make_value(i, 30));
  });
  ASSERT_EQ(tree_->height(), 2u);
  const blockdev::NodeStoreStats& store = tree_->store_stats();
  const uint64_t writes = store.node_writes;
  ASSERT_EQ(tree_->range_scan("", 10).size(), 10u);
  EXPECT_EQ(store.node_reads, 1u);
  EXPECT_EQ(store.read_batches, 1u);
  EXPECT_EQ(store.batched_reads, 2u);
  EXPECT_EQ(store.node_writes, writes);  // bulk load wrote each node once
  EXPECT_EQ(writes, tree_->nodes_in_use());
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

// ---------------------------------------------------------------------------
// Scan merge edge cases. 4 KiB nodes with fanout 4 give a tree of height
// >= 3, so a scan merges leaf entries with messages buffered on two or more
// levels; every scan is checked against a std::map model.
// ---------------------------------------------------------------------------

// Exposes a key's root-to-leaf path, so a test can check that its setup
// put each version of the key on the level it claims.
class ProbedBeTree : public BeTree {
 public:
  using BeTree::BeTree;

  struct Step {
    size_t child = 0;     // child index taken (0 at the leaf)
    size_t versions = 0;  // messages buffered for the key; leaf: 0 or 1
  };
  /// One step per node on the key's path, root first.
  std::vector<Step> path(std::string_view key) {
    std::vector<Step> steps;
    NodeRef node = try_fetch(root_).value();
    while (!node->is_leaf()) {
      const size_t idx = node->child_index(key);
      MsgSegment msgs;
      node->collect_for_key(idx, key, &msgs);
      steps.push_back({idx, msgs.count});
      node = try_fetch(node->child(idx)).value();
    }
    const bool in_leaf = node->key_equals(node->lower_bound(key), key);
    steps.push_back({0, in_leaf ? 1u : 0u});
    return steps;
  }

  /// True iff both keys are routed to the same leaf.
  bool same_leaf(std::string_view a, std::string_view b) {
    const std::vector<Step> pa = path(a);
    const std::vector<Step> pb = path(b);
    return std::equal(pa.begin(), pa.end(), pb.begin(), pb.end(),
                      [](const Step& x, const Step& y) {
                        return x.child == y.child;
                      });
  }
};

class BeTreeScanTest : public testing::Test {
 protected:
  // Bulk keys are the multiples of kStride, leaving room between them for
  // keys that exist only as buffered messages. Their values are counters,
  // so an upsert that skips the leaf value shows.
  static constexpr uint64_t kStride = 4;
  static constexpr uint64_t kLoad = 1500;
  static constexpr uint64_t kLastBulk = (kLoad - 1) * kStride;

  BeTreeScanTest() {
    sim::HddConfig cfg;
    cfg.capacity_bytes = 4ULL * kGiB;
    dev_ = std::make_unique<sim::HddDevice>(cfg, 1);
    io_ = std::make_unique<sim::IoContext>(*dev_);
    BeTreeConfig tc;
    tc.node_bytes = 4 * kKiB;
    tc.target_fanout = 4;
    tc.cache_bytes = 1 * kMiB;
    tree_ = std::make_unique<ProbedBeTree>(*dev_, *io_, tc);
    tree_->bulk_load(kLoad, [](uint64_t i) {
      return std::make_pair(key(i * kStride), kv::encode_counter(i));
    });
    for (uint64_t i = 0; i < kLoad; ++i) {
      model_[key(i * kStride)] = kv::encode_counter(i);
    }
  }

  static std::string key(uint64_t id) { return kv::encode_key(id); }

  void put(uint64_t id, const std::string& value) {
    tree_->put(key(id), value);
    model_[key(id)] = value;
  }
  void erase(uint64_t id) {
    tree_->erase(key(id));
    model_.erase(key(id));
  }
  void upsert(uint64_t id, int64_t delta) {
    tree_->upsert(key(id), delta);
    const auto it = model_.find(key(id));
    const uint64_t base =
        it == model_.end() ? 0 : kv::decode_counter(it->second);
    model_[key(id)] = kv::encode_counter(base + static_cast<uint64_t>(delta));
  }

  /// The ids range_scan(lo, limit) returns, checked against the model.
  std::vector<uint64_t> scan(std::string_view lo, size_t limit) {
    std::vector<std::pair<std::string, std::string>> want;
    for (auto it = model_.lower_bound(std::string(lo));
         it != model_.end() && want.size() < limit; ++it) {
      want.push_back(*it);
    }
    const auto got = tree_->range_scan(lo, limit);
    EXPECT_EQ(got, want) << "limit " << limit;
    std::vector<uint64_t> ids;
    for (const auto& row : got) ids.push_back(kv::decode_key(row.first));
    return ids;
  }
  /// scan(lo, limit) for every limit from 0 (empty) to 40.
  void scan_all_limits(std::string_view lo) {
    for (size_t limit = 0; limit <= 40; ++limit) scan(lo, limit);
  }

  /// The first bulk key at or after `from` that is the last entry of its
  /// leaf, where the next leaf hangs off the same root child iff
  /// `same_root_child`. The next bulk key starts that leaf, so it is a
  /// pivot: below the root, or in it.
  uint64_t last_in_leaf(uint64_t from, bool same_root_child) {
    for (uint64_t id = from; id < kLastBulk; id += kStride) {
      const uint64_t next = id + kStride;
      if (tree_->same_leaf(key(id), key(next))) continue;
      const bool shared = tree_->path(key(id))[0].child ==
                          tree_->path(key(next))[0].child;
      if (shared == same_root_child) return id;
    }
    ADD_FAILURE() << "no leaf boundary after " << from;
    return from;
  }

  std::unique_ptr<sim::HddDevice> dev_;
  std::unique_ptr<sim::IoContext> io_;
  std::unique_ptr<ProbedBeTree> tree_;
  std::map<std::string, std::string> model_;
};

TEST_F(BeTreeScanTest, VersionsOnThreeLevelsApplyOldestFirst) {
  ASSERT_GE(tree_->height(), 3u);
  const uint64_t k = kLoad / 2 * kStride;
  upsert(k, 5);
  // Sink the upsert one level: flood k's root child, but not k's leaf,
  // until the root flushes that child. The node below then flushes the
  // flooded leaves and keeps k's upsert buffered.
  const std::vector<ProbedBeTree::Step> k_path = tree_->path(key(k));
  std::vector<uint64_t> flood;
  for (uint64_t id = 1; id < kLastBulk && flood.size() < 64; ++id) {
    if (id % kStride == 0) continue;
    if (tree_->path(key(id))[0].child == k_path[0].child &&
        !tree_->same_leaf(key(id), key(k))) {
      flood.push_back(id);
    }
  }
  ASSERT_FALSE(flood.empty());
  for (uint64_t i = 0; tree_->path(key(k))[0].versions > 0; ++i) {
    ASSERT_LT(i, 10'000u) << "the root never flushed k's child";
    put(flood[i % flood.size()], kv::make_value(kLoad + i, 20));
  }
  scan_all_limits(key(k - 5 * kStride));
  erase(k);
  upsert(k, 7);

  const std::vector<ProbedBeTree::Step> steps = tree_->path(key(k));
  ASSERT_GE(steps.size(), 3u);
  EXPECT_EQ(steps.front().versions, 2u);            // tombstone, upsert
  EXPECT_EQ(steps[steps.size() - 2].versions, 1u);  // upsert, one level up
  EXPECT_EQ(steps.back().versions, 1u);             // leaf value
  EXPECT_EQ(tree_->get(key(k)), kv::encode_counter(7));
  EXPECT_EQ(scan(key(k), 1), std::vector<uint64_t>{k});
  scan_all_limits(key(k - 5 * kStride));
  tree_->check_invariants();
}

TEST_F(BeTreeScanTest, MessageOnlyKeysAfterALeafsLastEntry) {
  const uint64_t last = last_in_leaf(kLoad / 3 * kStride, true);
  const uint64_t pivot = last + kStride;
  upsert(last, 2);
  put(last + 1, "message-only");
  upsert(last + 3, 2);
  erase(pivot);
  put(pivot + 1, "message-only, next leaf");
  // Both new keys sort after the leaf's last entry and before the pivot:
  // they are routed to the leaf but exist only in buffers.
  EXPECT_TRUE(tree_->same_leaf(key(last + 3), key(last)));
  EXPECT_EQ(tree_->path(key(last + 3)).back().versions, 0u);
  // The limit ends exactly on a message-only key ...
  EXPECT_EQ(scan(key(last), 3),
            (std::vector<uint64_t>{last, last + 1, last + 3}));
  // ... and on the tombstoned pivot, which the scan steps over.
  EXPECT_EQ(scan(key(last), 4),
            (std::vector<uint64_t>{last, last + 1, last + 3, pivot + 1}));
  scan_all_limits(key(last - 3 * kStride));
  scan_all_limits(key(last + 2));
}

TEST_F(BeTreeScanTest, StartKeysAtPivotsBetweenThemAndPastTheEnds) {
  const uint64_t last = last_in_leaf(kStride, false);
  const uint64_t pivot = last + kStride;
  erase(last);
  put(pivot + 1, "message-only");
  upsert(pivot + 2 * kStride, 4);
  put(kLastBulk + 2, "past the last leaf entry");

  {
    SCOPED_TRACE("lo equal to a pivot in the root");
    scan_all_limits(key(pivot));
  }
  {
    SCOPED_TRACE("lo equal to a pivot below the root");
    scan_all_limits(key(last_in_leaf(kStride, true) + kStride));
  }
  {
    SCOPED_TRACE("lo between two pivots");
    scan_all_limits(key(pivot + 2));
  }
  {
    SCOPED_TRACE("lo below the first key");
    scan_all_limits("");
    erase(0);
    scan_all_limits(key(0));
  }
  // Past the last leaf entry, a buffered key is still found; past every
  // key the scan is empty.
  EXPECT_EQ(scan(key(kLastBulk + 1), 10),
            std::vector<uint64_t>{kLastBulk + 2});
  EXPECT_TRUE(scan(key(kLastBulk + 3), 10).empty());
}

}  // namespace
}  // namespace damkit::betree
