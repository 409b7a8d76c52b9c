#include "betree_opt/opt_betree.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "kv/slice.h"
#include "sim/hdd.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace damkit::betree_opt {
namespace {

class OptBeTreeTest : public testing::Test {
 protected:
  OptBeTreeTest() { reset(); }

  void reset(uint64_t node_bytes = 64 * kKiB, size_t fanout = 16,
             uint64_t cache_bytes = 512 * kKiB) {
    sim::HddConfig cfg;
    cfg.capacity_bytes = 4ULL * kGiB;
    dev_ = std::make_unique<sim::HddDevice>(cfg, 1);
    io_ = std::make_unique<sim::IoContext>(*dev_);
    betree::BeTreeConfig tc;
    tc.node_bytes = node_bytes;
    tc.target_fanout = fanout;
    tc.cache_bytes = cache_bytes;
    tree_ = std::make_unique<OptBeTree>(*dev_, *io_, tc);
  }

  std::unique_ptr<sim::HddDevice> dev_;
  std::unique_ptr<sim::IoContext> io_;
  std::unique_ptr<OptBeTree> tree_;
};

TEST_F(OptBeTreeTest, BasicPutGet) {
  tree_->put("k", "v");
  EXPECT_EQ(tree_->get("k"), "v");
  EXPECT_EQ(tree_->get("missing"), std::nullopt);
}

TEST_F(OptBeTreeTest, SegmentCapIsBOverF) {
  EXPECT_EQ(tree_->segment_cap_bytes(), 64 * kKiB / 16);
}

TEST_F(OptBeTreeTest, CorrectUnderMixedWorkload) {
  std::map<std::string, std::string> ref;
  Rng rng(11);
  for (int i = 0; i < 4000; ++i) {
    const uint64_t id = rng.uniform(800);
    const std::string key = kv::encode_key(id);
    const double dice = rng.uniform_double();
    if (dice < 0.5) {
      const std::string value = kv::make_value(rng.next(), 40);
      tree_->put(key, value);
      ref[key] = value;
    } else if (dice < 0.7) {
      const auto got = tree_->get(key);
      const auto it = ref.find(key);
      if (it == ref.end()) {
        EXPECT_EQ(got, std::nullopt);
      } else {
        EXPECT_EQ(got, it->second);
      }
    } else if (dice < 0.85) {
      tree_->erase(key);
      ref.erase(key);
    } else {
      tree_->upsert(key, 3);
      const auto it = ref.find(key);
      const uint64_t base =
          (it == ref.end()) ? 0 : kv::decode_counter(it->second);
      ref[key] = kv::encode_counter(base + 3);
    }
  }
  tree_->check_invariants();
  tree_->flush();
  for (const auto& [k, v] : ref) EXPECT_EQ(tree_->get(k), v);
}

TEST_F(OptBeTreeTest, BufferCapEnforcedByFlushPressure) {
  // Hammer a skewed key range so a single child's buffer would exceed B/F
  // without the Theorem-9 cap.
  for (uint64_t i = 0; i < 20000; ++i) {
    const uint64_t id = (i % 10 == 0) ? i : (i % 97);  // 90% hot keys
    tree_->put(kv::encode_key(id), kv::make_value(i, 30));
  }
  tree_->check_invariants();
  // The cap property is structural: sweep every resident internal node.
  // check_invariants already walks the tree; here we assert the tree kept
  // flushing (pressure fired) rather than letting buffers grow.
  EXPECT_GT(tree_->op_stats().flushes, 0u);
}

TEST_F(OptBeTreeTest, ColdQueriesUseSegmentReads) {
  reset(64 * kKiB, 16, 8 * 64 * kKiB);  // small cache → cold queries
  constexpr uint64_t kN = 50000;
  tree_->bulk_load(kN, [](uint64_t i) {
    return std::make_pair(kv::encode_key(i), kv::make_value(i, 30));
  });
  Rng rng(13);
  for (int q = 0; q < 200; ++q) {
    const uint64_t id = rng.uniform(kN);
    EXPECT_EQ(tree_->get(kv::encode_key(id)), kv::make_value(id, 30));
  }
  EXPECT_GT(tree_->opt_stats().segment_reads, 0u);
  // Mean segment IO far below a whole node.
  const double mean_bytes =
      static_cast<double>(tree_->opt_stats().segment_bytes_read) /
      static_cast<double>(tree_->opt_stats().segment_reads);
  EXPECT_LT(mean_bytes, 64.0 * kKiB / 2);
}

TEST_F(OptBeTreeTest, QueriesCheaperThanStandardBeTree) {
  // Theorem 9's advantage appears when the node size is large relative to
  // the half-bandwidth point (αB ≫ 1): sub-node IOs then skip most of
  // the transfer cost. At small B the setup cost dominates both designs
  // and the segment-granular cache dilutes hot-node coverage — the same
  // reason the paper pairs this design with *large-node* Bε-trees.
  constexpr uint64_t kNode = 4 * kMiB;
  constexpr uint64_t kN = 400000;
  auto measure = [&](bool optimized) {
    sim::HddConfig cfg;
    cfg.capacity_bytes = 8ULL * kGiB;
    sim::HddDevice dev(cfg, 3);
    sim::IoContext io(dev);
    betree::BeTreeConfig tc;
    tc.node_bytes = kNode;
    tc.target_fanout = 64;
    tc.cache_bytes = 4 * kNode;
    std::unique_ptr<betree::BeTree> t;
    if (optimized) {
      t = std::make_unique<OptBeTree>(dev, io, tc);
    } else {
      t = std::make_unique<betree::BeTree>(dev, io, tc);
    }
    t->bulk_load(kN, [](uint64_t i) {
      return std::make_pair(kv::encode_key(i), kv::make_value(i, 30));
    });
    const sim::SimTime before = io.now();
    Rng rng(5);
    for (int q = 0; q < 300; ++q) {
      const uint64_t id = rng.uniform(kN);
      if (!t->get(kv::encode_key(id)).has_value()) ADD_FAILURE();
    }
    return sim::to_seconds(io.now() - before);
  };
  const double standard = measure(false);
  const double optimized = measure(true);
  EXPECT_LT(optimized, standard);
}

TEST_F(OptBeTreeTest, MutationAfterPartialReadUpgradesResidency) {
  reset(64 * kKiB, 16, 8 * 64 * kKiB);
  constexpr uint64_t kN = 50000;
  tree_->bulk_load(kN, [](uint64_t i) {
    return std::make_pair(kv::encode_key(i), kv::make_value(i, 30));
  });
  // Query cold (partial loads) then mutate the same region.
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    const uint64_t id = rng.uniform(kN);
    tree_->get(kv::encode_key(id));
    tree_->put(kv::encode_key(id), kv::make_value(id + 1, 30));
  }
  EXPECT_GT(tree_->opt_stats().residency_upgrades, 0u);
  tree_->check_invariants();
  tree_->flush();
}

TEST_F(OptBeTreeTest, InsertCostNotWorseThanStandard) {
  // Theorem 9 leaves inserts asymptotically unchanged; allow a modest
  // constant-factor overhead from the eager B/F flushing.
  constexpr uint64_t kNode = 128 * kKiB;
  auto measure = [&](bool optimized) {
    sim::HddConfig cfg;
    cfg.capacity_bytes = 8ULL * kGiB;
    sim::HddDevice dev(cfg, 3);
    sim::IoContext io(dev);
    betree::BeTreeConfig tc;
    tc.node_bytes = kNode;
    tc.target_fanout = 16;
    tc.cache_bytes = 16 * kNode;
    std::unique_ptr<betree::BeTree> t;
    if (optimized) {
      t = std::make_unique<OptBeTree>(dev, io, tc);
    } else {
      t = std::make_unique<betree::BeTree>(dev, io, tc);
    }
    const sim::SimTime before = io.now();
    for (uint64_t i = 0; i < 20000; ++i) {
      t->put(kv::encode_key(i * 2654435761 % 100000),
             kv::make_value(i, 30));
    }
    t->flush();
    return sim::to_seconds(io.now() - before);
  };
  const double standard = measure(false);
  const double optimized = measure(true);
  EXPECT_LT(optimized, standard * 4.0);
}

TEST_F(OptBeTreeTest, ScansAgreeWithStdMapAndTheStandardTree) {
  // Five 8 KiB nodes of cache: cold gets leave nodes partially resident,
  // scans upgrade them to full residency, and a scan's prefetch batch
  // evicts siblings the scan has not reached yet.
  constexpr uint64_t kNode = 8 * kKiB;
  reset(kNode, 8, 5 * kNode);
  sim::HddConfig cfg;
  cfg.capacity_bytes = 4ULL * kGiB;
  sim::HddDevice std_dev(cfg, 1);
  sim::IoContext std_io(std_dev);
  betree::BeTreeConfig tc;
  tc.node_bytes = kNode;
  tc.target_fanout = 8;
  tc.cache_bytes = 5 * kNode;
  betree::BeTree standard(std_dev, std_io, tc);

  constexpr uint64_t kN = 6000;
  const auto item = [](uint64_t i) {
    return std::make_pair(kv::encode_key(2 * i), kv::make_value(i, 30));
  };
  tree_->bulk_load(kN, item);
  standard.bulk_load(kN, item);
  std::map<std::string, std::string> ref;
  for (uint64_t i = 0; i < kN; ++i) ref.insert(item(i));

  Rng rng(23);
  uint64_t scans = 0;
  for (int op = 0; op < 3000; ++op) {
    const std::string key = kv::encode_key(rng.uniform(2 * kN + 50));
    const double dice = rng.uniform_double();
    if (dice < 0.25) {
      const std::string value = kv::make_value(rng.next(), 30);
      tree_->put(key, value);
      standard.put(key, value);
      ref[key] = value;
    } else if (dice < 0.35) {
      tree_->erase(key);
      standard.erase(key);
      ref.erase(key);
    } else if (dice < 0.45) {
      tree_->upsert(key, 3);
      standard.upsert(key, 3);
      const auto it = ref.find(key);
      const uint64_t base =
          (it == ref.end()) ? 0 : kv::decode_counter(it->second);
      ref[key] = kv::encode_counter(base + 3);
    } else if (dice < 0.7) {
      const auto it = ref.find(key);
      const auto got = tree_->get(key);
      if (it == ref.end()) {
        EXPECT_EQ(got, std::nullopt) << "op " << op;
      } else {
        EXPECT_EQ(got, it->second) << "op " << op;
      }
    } else {
      const size_t limit = 1 + static_cast<size_t>(rng.uniform(60));
      std::vector<std::pair<std::string, std::string>> want;
      for (auto it = ref.lower_bound(key);
           it != ref.end() && want.size() < limit; ++it) {
        want.push_back(*it);
      }
      const auto got = tree_->range_scan(key, limit);
      EXPECT_EQ(got, want) << "op " << op;
      EXPECT_EQ(got, standard.range_scan(key, limit)) << "op " << op;
      ++scans;
    }
  }
  EXPECT_GT(scans, 500u);
  EXPECT_GT(tree_->opt_stats().segment_reads, 0u);
  EXPECT_GT(tree_->opt_stats().residency_upgrades, 0u);
  EXPECT_GT(tree_->cache_stats().evictions, 0u);
  tree_->check_invariants();
  standard.check_invariants();
}

}  // namespace
}  // namespace damkit::betree_opt
