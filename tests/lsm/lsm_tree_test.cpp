#include "lsm/lsm_tree.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "kv/slice.h"
#include "node/record.h"
#include "sim/hdd.h"
#include "util/bytes.h"
#include "util/table.h"

namespace damkit::lsm {
namespace {

class LsmTreeTest : public testing::Test {
 protected:
  LsmTreeTest() { reset(); }

  void reset(uint64_t memtable_bytes = 16 * 1024,
             uint64_t sstable_bytes = 32 * 1024,
             uint64_t level1_bytes = 128 * 1024) {
    sim::HddConfig cfg;
    cfg.capacity_bytes = 8ULL * kGiB;
    dev_ = std::make_unique<sim::HddDevice>(cfg, 1);
    io_ = std::make_unique<sim::IoContext>(*dev_);
    LsmConfig lc;
    lc.memtable_bytes = memtable_bytes;
    lc.sstable_target_bytes = sstable_bytes;
    lc.block_bytes = 1024;
    lc.level0_limit = 4;
    lc.level1_bytes = level1_bytes;
    lc.size_ratio = 4.0;
    tree_ = std::make_unique<LsmTree>(*dev_, *io_, lc);
  }

  std::unique_ptr<sim::HddDevice> dev_;
  std::unique_ptr<sim::IoContext> io_;
  std::unique_ptr<LsmTree> tree_;
};

TEST_F(LsmTreeTest, EmptyTree) {
  EXPECT_EQ(tree_->get("k"), std::nullopt);
  EXPECT_TRUE(tree_->range_scan("", 5).empty());
}

TEST_F(LsmTreeTest, MemtableOnlyPutGet) {
  tree_->put("a", "1");
  tree_->put("b", "2");
  EXPECT_EQ(tree_->get("a"), "1");
  EXPECT_EQ(tree_->get("b"), "2");
  EXPECT_EQ(tree_->get("c"), std::nullopt);
  EXPECT_EQ(tree_->stats().memtable_flushes, 0u);
}

TEST_F(LsmTreeTest, FlushAndCompactAcrossLevels) {
  constexpr uint64_t kN = 20000;
  for (uint64_t i = 0; i < kN; ++i) {
    tree_->put(kv::encode_key(i * 2654435761 % 100000), kv::make_value(i, 40));
  }
  tree_->flush();
  EXPECT_GT(tree_->stats().memtable_flushes, 5u);
  EXPECT_GT(tree_->stats().compactions, 0u);
  EXPECT_GE(tree_->height(), 2u);
  tree_->check_invariants();
}

TEST_F(LsmTreeTest, NewestVersionWinsAfterCompactions) {
  for (int round = 0; round < 6; ++round) {
    for (uint64_t i = 0; i < 500; ++i) {
      tree_->put(kv::encode_key(i),
                 strfmt("r%d-%llu", round, static_cast<unsigned long long>(i)));
    }
  }
  tree_->flush();
  tree_->check_invariants();
  for (uint64_t i = 0; i < 500; i += 17) {
    EXPECT_EQ(tree_->get(kv::encode_key(i)), "r5-" + std::to_string(i)) << i;
  }
}

TEST_F(LsmTreeTest, TombstonesDeleteAcrossLevels) {
  for (uint64_t i = 0; i < 2000; ++i) {
    tree_->put(kv::encode_key(i), kv::make_value(i, 30));
  }
  tree_->flush();
  for (uint64_t i = 0; i < 2000; i += 2) tree_->erase(kv::encode_key(i));
  tree_->flush();
  tree_->check_invariants();
  for (uint64_t i = 0; i < 2000; i += 97) {
    if (i % 2 == 0) {
      EXPECT_EQ(tree_->get(kv::encode_key(i)), std::nullopt) << i;
    } else {
      EXPECT_EQ(tree_->get(kv::encode_key(i)), kv::make_value(i, 30)) << i;
    }
  }
}

TEST_F(LsmTreeTest, ScanMergesAllSources) {
  // Old data on disk, fresh overlay in the memtable.
  for (uint64_t i = 0; i < 3000; ++i) {
    tree_->put(kv::encode_key(i * 2), "old");
  }
  tree_->flush();
  tree_->put(kv::encode_key(11), "fresh-insert");
  tree_->put(kv::encode_key(14), "fresh-update");
  tree_->erase(kv::encode_key(12));
  const auto out = tree_->range_scan(kv::encode_key(10), 4);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].first, kv::encode_key(10));
  EXPECT_EQ(out[0].second, "old");
  EXPECT_EQ(out[1].first, kv::encode_key(11));
  EXPECT_EQ(out[1].second, "fresh-insert");
  EXPECT_EQ(out[2].first, kv::encode_key(14));
  EXPECT_EQ(out[2].second, "fresh-update");
  EXPECT_EQ(out[3].first, kv::encode_key(16));
}

TEST_F(LsmTreeTest, ScanSpansTablesWithinLevel) {
  for (uint64_t i = 0; i < 8000; ++i) {
    tree_->put(kv::encode_key(i), kv::make_value(i, 30));
  }
  tree_->flush();
  tree_->check_invariants();
  const auto out = tree_->range_scan(kv::encode_key(100), 3000);
  ASSERT_EQ(out.size(), 3000u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].first, kv::encode_key(100 + i));
  }
}

TEST_F(LsmTreeTest, BloomFiltersSuppressNegativeLookups) {
  for (uint64_t i = 0; i < 5000; ++i) {
    tree_->put(kv::encode_key(i), kv::make_value(i, 30));
  }
  tree_->flush();
  dev_->clear_stats();
  for (uint64_t i = 0; i < 500; ++i) {
    EXPECT_EQ(tree_->get(kv::encode_key(1'000'000 + i)), std::nullopt);
  }
  // In-range misses are rare here (keys dense), so most negative probes
  // are range-pruned or bloom-pruned: near-zero read IOs.
  EXPECT_LT(dev_->stats().reads, 25u);
}

TEST_F(LsmTreeTest, WriteAmplificationBounded) {
  constexpr uint64_t kN = 30000;
  dev_->clear_stats();
  for (uint64_t i = 0; i < kN; ++i) {
    tree_->put(kv::encode_key(i * 2654435761 % (1 << 20)),
               kv::make_value(i, 40));
  }
  tree_->flush();
  const double logical = static_cast<double>(kN) * 56.0;
  const double amp = static_cast<double>(dev_->stats().bytes_written) / logical;
  // Leveled compaction write amp ~ size_ratio × depth; far below a
  // B-tree's node_size/entry_size.
  EXPECT_LT(amp, 40.0);
  EXPECT_GT(amp, 1.0);
}

TEST_F(LsmTreeTest, LevelSizesFollowGeometry) {
  for (uint64_t i = 0; i < 60000; ++i) {
    tree_->put(kv::encode_key(i * 2654435761 % (1 << 22)),
               kv::make_value(i, 40));
  }
  tree_->flush();
  tree_->check_invariants();
  // Every level within its capacity after compaction settles.
  for (size_t lvl = 1; lvl + 1 < tree_->height(); ++lvl) {
    if (tree_->level_table_counts()[lvl] == 0) continue;
    // Allow the last-filled level to exceed (it is the bottom).
    EXPECT_LE(tree_->level_bytes(lvl),
              static_cast<uint64_t>(128 * 1024 *
                                    std::pow(4.0, double(lvl - 1)) * 2))
        << lvl;
  }
}

TEST_F(LsmTreeTest, TieredCompactionCorrectAndCheaperToWrite) {
  auto run_style = [](CompactionStyle style, uint64_t* bytes_written) {
    sim::HddConfig dc;
    dc.capacity_bytes = 8ULL * kGiB;
    sim::HddDevice dev(dc, 1);
    sim::IoContext io(dev);
    LsmConfig lc;
    lc.memtable_bytes = 8 * 1024;
    lc.sstable_target_bytes = 16 * 1024;
    lc.block_bytes = 1024;
    lc.level0_limit = 4;
    lc.level1_bytes = 64 * 1024;
    lc.size_ratio = 4.0;
    lc.style = style;
    LsmTree tree(dev, io, lc);
    constexpr uint64_t kN = 20000;
    for (uint64_t i = 0; i < kN; ++i) {
      tree.put(kv::encode_key(i * 2654435761 % 50000), kv::make_value(i, 40));
    }
    tree.flush();
    tree.check_invariants();
    // Spot-check correctness: re-derive expected newest values.
    for (uint64_t probe = 0; probe < 50000; probe += 997) {
      uint64_t newest = kN;  // sentinel: not written
      for (uint64_t i = 0; i < kN; ++i) {
        if (i * 2654435761 % 50000 == probe) newest = i;
      }
      const auto got = tree.get(kv::encode_key(probe));
      if (newest == kN) {
        EXPECT_EQ(got, std::nullopt) << probe;
      } else {
        EXPECT_EQ(got, kv::make_value(newest, 40)) << probe;
      }
    }
    *bytes_written = dev.stats().bytes_written;
  };
  uint64_t leveled_bytes = 0, tiered_bytes = 0;
  run_style(CompactionStyle::kLeveled, &leveled_bytes);
  run_style(CompactionStyle::kTiered, &tiered_bytes);
  // The classic tradeoff: tiered rewrites each byte ~once per level hop,
  // leveled rewrites ~size_ratio times per hop.
  EXPECT_LT(tiered_bytes, leveled_bytes);
}

TEST_F(LsmTreeTest, TieredScanMergesOverlappingRuns) {
  sim::HddConfig dc;
  dc.capacity_bytes = 8ULL * kGiB;
  sim::HddDevice dev(dc, 1);
  sim::IoContext io(dev);
  LsmConfig lc;
  lc.memtable_bytes = 4 * 1024;
  lc.sstable_target_bytes = 8 * 1024;
  lc.block_bytes = 1024;
  lc.level0_limit = 3;
  lc.style = CompactionStyle::kTiered;
  LsmTree tree(dev, io, lc);
  for (uint64_t round = 0; round < 5; ++round) {
    for (uint64_t i = 0; i < 1000; ++i) {
      tree.put(kv::encode_key(i),
               strfmt("r%llu", static_cast<unsigned long long>(round)));
    }
  }
  tree.flush();
  tree.check_invariants();
  const auto out = tree.range_scan(kv::encode_key(10), 20);
  ASSERT_EQ(out.size(), 20u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].first, kv::encode_key(10 + i));
    EXPECT_EQ(out[i].second, "r4");  // newest round everywhere
  }
}

TEST_F(LsmTreeTest, StatsAccumulate) {
  tree_->put("a", "1");
  tree_->get("a");
  tree_->erase("a");
  tree_->range_scan("", 1);
  const LsmStats& s = tree_->stats();
  EXPECT_EQ(s.puts, 1u);
  EXPECT_EQ(s.gets, 1u);
  EXPECT_EQ(s.erases, 1u);
  EXPECT_EQ(s.scans, 1u);
}

TEST_F(LsmTreeTest, HostMemoryReclaimedByCompaction) {
  // Obsolete tables must be trimmed, or the sparse store grows without
  // bound under churn.
  for (int round = 0; round < 10; ++round) {
    for (uint64_t i = 0; i < 2000; ++i) {
      tree_->put(kv::encode_key(i), kv::make_value(i + round, 40));
    }
    tree_->flush();
  }
  // Live data is ~2000 × 56 B; resident host bytes should be within a
  // small multiple, not 10 rounds' worth.
  EXPECT_LT(dev_->resident_host_bytes(), 4ULL * kMiB);
}

// A tree whose first table holds keys 0..199 (16 B keys, 100 B values,
// 4 KiB blocks, written at the arena's base), with record 1's u32 value
// length then overwritten on the device to claim 16 MiB.
class LsmCorruptTableTest : public testing::Test {
 protected:
  LsmCorruptTableTest() : dev_(make_config()), io_(dev_) {
    LsmConfig lc;
    lc.memtable_bytes = 1 << 20;  // only checkpoint() flushes
    lc.block_bytes = 4096;
    lc.level0_limit = 1;
    tree_ = std::make_unique<LsmTree>(dev_, io_, lc);
    put_range(0, 200);
    EXPECT_TRUE(tree_->checkpoint().ok());
    const uint8_t vlen[] = {0xFF, 0xFF, 0xFF, 0x00};
    dev_.write_bytes(node::TaggedRecord::encoded_size(16, 100) + 3, vlen);
  }

  static sim::HddConfig make_config() {
    sim::HddConfig cfg;
    cfg.capacity_bytes = 8ULL * kGiB;
    return cfg;
  }

  void put_range(uint64_t first, uint64_t end) {
    for (uint64_t i = first; i < end; ++i) {
      ASSERT_TRUE(
          tree_->try_put(kv::encode_key(i, 16), kv::make_value(i, 100)).ok());
    }
  }

  sim::HddDevice dev_;
  sim::IoContext io_;
  std::unique_ptr<LsmTree> tree_;
};

TEST_F(LsmCorruptTableTest, ScanReportsCorruption) {
  const auto out = tree_->try_range_scan("", 1000);
  EXPECT_EQ(out.status().code(), StatusCode::kCorruption)
      << out.status().to_string();
}

TEST_F(LsmCorruptTableTest, CompactionReportsCorruptionAndKeepsItsInputs) {
  // A second L0 table pushes L0 over its limit: the L0→L1 merge reads the
  // corrupt table and must give up without installing anything.
  put_range(200, 400);
  const Status s = tree_->checkpoint();
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.to_string();
  EXPECT_EQ(tree_->level_table_counts(), (std::vector<size_t>{2, 0}));
  tree_->check_invariants();
  // Keys outside the corrupt block still read back (block 0 holds 0..33).
  for (const uint64_t i : {34u, 150u, 199u, 200u, 399u}) {
    EXPECT_EQ(tree_->get(kv::encode_key(i, 16)), kv::make_value(i, 100)) << i;
  }
}

}  // namespace
}  // namespace damkit::lsm
