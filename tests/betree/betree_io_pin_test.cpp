// Pins the Bε-trees' device traffic and results. Each case runs one seeded
// mix of puts, erases, upserts, gets and short scans on a cache of a few
// nodes: the tree grows past three levels, so flushes run at depth 1 and
// below, evictions write dirty nodes back, the optimized tree upgrades
// partially read nodes, and a shrinking second half merges leaves. It then
// checkpoints and reads the whole state back in 512-row chunks. The
// simulated clock, the device's IO counts and bytes, every tree and cache
// counter, the flushes by depth and a digest of every row read must match
// the recorded constants, so a refactor of the message path that reorders,
// adds or drops a single IO or cache access fails here. The trees are
// built directly (identity codec), so the DAMKIT_CODEC fallback cannot
// move them.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "betree/betree.h"
#include "betree_opt/opt_betree.h"
#include "kv/slice.h"
#include "sim/hdd.h"
#include "sim/profiles.h"
#include "sim/ssd.h"
#include "util/bytes.h"
#include "util/hash.h"
#include "util/rng.h"

namespace damkit::betree {
namespace {

// The pinned table's columns.
constexpr const char* kTrees[] = {"BeTree", "OptBeTree"};

struct Pin {
  std::string_view counter;
  uint64_t by_tree[2];
};

// A change that means to move the Bε-trees' IO re-records these in a commit
// of its own; any other change must reproduce them exactly. The testbed SSD
// and HDD see the same IOs, so only the simulated clock has a row per
// device.
constexpr Pin kPinned[] = {
    {"io.now.ssd", {2266808280, 2279533906}},
    {"io.now.hdd", {67934427745, 85034752582}},
    {"dev.reads", {12920, 14765}},
    {"dev.writes", {437, 653}},
    {"dev.bytes_read", {52920320, 27525544}},
    {"dev.bytes_written", {1789952, 2674688}},
    {"dev.batches", {1646, 8016}},
    {"dev.batch_ios", {3291, 11636}},
    {"betree.puts", {3023, 3023}},
    {"betree.gets", {2962, 2962}},
    {"betree.erases", {3589, 3589}},
    {"betree.upserts", {1183, 1183}},
    {"betree.scans", {1244, 1244}},
    {"betree.flushes", {410, 728}},
    {"betree.leaf_splits", {28, 29}},
    {"betree.internal_splits", {18, 18}},
    {"betree.leaf_merges", {3, 9}},
    {"betree.messages_moved", {24373, 26733}},
    {"betree.logical_bytes_written", {286993, 286993}},
    {"opt.segment_reads", {0, 9363}},
    {"opt.segment_bytes_read", {0, 6383201}},
    {"opt.residency_upgrades", {0, 961}},
    {"flushes.depths", {4, 4}},
    {"flushes.depth0", {142, 311}},
    {"flushes.depth1", {108, 172}},
    {"flushes.depth2", {94, 126}},
    {"flushes.depth3", {66, 119}},
    {"cache.hits", {19066, 21307}},
    {"cache.misses", {9630, 8173}},
    {"cache.evictions", {12960, 10480}},
    {"cache.dirty_writebacks", {437, 653}},
};
// Both trees hold the same state, so every tree and device reads the same
// rows.
constexpr uint64_t kRows = 12146;
constexpr uint64_t kDigest = 12757250383775870744u;

constexpr size_t kChunkRows = 512;

class BeTreeIoPinTest
    : public testing::TestWithParam<std::tuple<size_t, bool>> {};

TEST_P(BeTreeIoPinTest, SameIoSameResults) {
  const auto [tree_index, hdd] = GetParam();
  std::unique_ptr<sim::Device> dev;
  if (hdd) {
    dev = std::make_unique<sim::HddDevice>(sim::testbed_hdd_profile());
  } else {
    dev = std::make_unique<sim::SsdDevice>(sim::testbed_ssd_profile());
  }
  sim::IoContext io(*dev);
  BeTreeConfig tc;
  tc.node_bytes = 4 * kKiB;
  tc.target_fanout = 4;
  tc.cache_bytes = 8 * tc.node_bytes;
  std::unique_ptr<BeTree> tree;
  betree_opt::OptBeTree* opt = nullptr;
  if (tree_index == 1) {
    auto t = std::make_unique<betree_opt::OptBeTree>(*dev, io, tc);
    opt = t.get();
    tree = std::move(t);
  } else {
    tree = std::make_unique<BeTree>(*dev, io, tc);
  }

  uint64_t rows = 0;
  uint64_t digest = kHashSeed;
  const auto absorb = [&](const std::string& key, const std::string& value) {
    digest = mix_bytes(mix_bytes(digest, key), value);
    ++rows;
  };
  Rng rng(13);
  constexpr int kOps = 12000;
  constexpr uint64_t kKeySpace = 1500;
  for (int i = 0; i < kOps; ++i) {
    const std::string key = kv::encode_key(rng.uniform(kKeySpace));
    const uint64_t dice = rng.uniform(100);
    // The first half grows the tree; the second erases more than it puts,
    // so leaves underflow and merge.
    const uint64_t puts = i < kOps / 2 ? 45 : 5;
    if (dice < puts) {
      const size_t len = 20 + rng.uniform(100);
      ASSERT_TRUE(tree->try_put(key, kv::make_value(rng.next(), len)).ok());
    } else if (dice < 55) {
      ASSERT_TRUE(tree->try_erase(key).ok());
    } else if (dice < 65) {
      ASSERT_TRUE(tree->try_upsert(key, 1 + rng.uniform(9)).ok());
    } else if (dice < 90) {
      StatusOr<std::optional<std::string>> got = tree->try_get(key);
      ASSERT_TRUE(got.ok()) << got.status().to_string();
      digest = mix_word(digest, got->has_value() ? 1 : 0);
      if (got->has_value()) absorb(key, **got);
    } else {
      StatusOr<std::vector<std::pair<std::string, std::string>>> out =
          tree->try_range_scan(key, 1 + rng.uniform(16));
      ASSERT_TRUE(out.ok()) << out.status().to_string();
      digest = mix_word(digest, out->size());
      for (const auto& [k, v] : *out) absorb(k, v);
    }
  }
  ASSERT_TRUE(tree->checkpoint().ok());
  std::string lo;
  while (true) {
    StatusOr<std::vector<std::pair<std::string, std::string>>> out =
        tree->try_range_scan(lo, kChunkRows);
    ASSERT_TRUE(out.ok()) << out.status().to_string();
    for (const auto& [k, v] : *out) absorb(k, v);
    if (out->size() < kChunkRows) break;
    lo = out->back().first;
    lo.push_back('\0');
  }
  tree->check_invariants();
  EXPECT_EQ(rows, kRows);
  EXPECT_EQ(digest, kDigest);

  const sim::DeviceStats& d = dev->stats();
  const BeTreeOpStats& s = tree->op_stats();
  const betree_opt::OptBeTreeStats o =
      opt != nullptr ? opt->opt_stats() : betree_opt::OptBeTreeStats{};
  const cache::NodeCacheStats& c = tree->cache_stats();
  const std::vector<uint64_t>& by_depth = tree->flushes_by_depth();
  std::map<std::string_view, uint64_t> got = {
      {hdd ? "io.now.hdd" : "io.now.ssd", io.now()},
      {"dev.reads", d.reads},
      {"dev.writes", d.writes},
      {"dev.bytes_read", d.bytes_read},
      {"dev.bytes_written", d.bytes_written},
      {"dev.batches", d.batches},
      {"dev.batch_ios", d.batch_ios},
      {"betree.puts", s.puts},
      {"betree.gets", s.gets},
      {"betree.erases", s.erases},
      {"betree.upserts", s.upserts},
      {"betree.scans", s.scans},
      {"betree.flushes", s.flushes},
      {"betree.leaf_splits", s.leaf_splits},
      {"betree.internal_splits", s.internal_splits},
      {"betree.leaf_merges", s.leaf_merges},
      {"betree.messages_moved", s.messages_moved},
      {"betree.logical_bytes_written", s.logical_bytes_written},
      {"opt.segment_reads", o.segment_reads},
      {"opt.segment_bytes_read", o.segment_bytes_read},
      {"opt.residency_upgrades", o.residency_upgrades},
      {"flushes.depths", by_depth.size()},
      {"cache.hits", c.hits},
      {"cache.misses", c.misses},
      {"cache.evictions", c.evictions},
      {"cache.dirty_writebacks", c.dirty_writebacks},
  };
  const char* const kDepths[] = {"flushes.depth0", "flushes.depth1",
                                 "flushes.depth2", "flushes.depth3"};
  for (size_t i = 0; i < std::size(kDepths); ++i) {
    got[kDepths[i]] = i < by_depth.size() ? by_depth[i] : 0;
  }
  for (const Pin& pin : kPinned) {
    if (pin.counter == (hdd ? "io.now.ssd" : "io.now.hdd")) continue;
    ASSERT_TRUE(got.contains(pin.counter)) << pin.counter;
    EXPECT_EQ(got[pin.counter], pin.by_tree[tree_index]) << pin.counter;
  }
  // The workload must reach the paths the pin exists for.
  ASSERT_GE(by_depth.size(), 2u);
  EXPECT_GT(by_depth[1], 0u);
  EXPECT_GT(s.leaf_merges, 0u);
  EXPECT_GT(c.evictions, 0u);
  if (opt != nullptr) {
    EXPECT_GT(o.residency_upgrades, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BeTreeIoPinTest,
    testing::Combine(testing::Range<size_t>(0, std::size(kTrees)),
                     testing::Bool()),
    [](const testing::TestParamInfo<std::tuple<size_t, bool>>& param) {
      return std::string(kTrees[std::get<0>(param.param)]) +
             (std::get<1>(param.param) ? "Hdd" : "Ssd");
    });

}  // namespace
}  // namespace damkit::betree
