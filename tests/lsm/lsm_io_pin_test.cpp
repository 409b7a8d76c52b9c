// Pins the LSM's device traffic and results. Each case runs one seeded mix
// of puts, erases, upserts, gets and short scans that flushes the memtable
// and compacts at least two levels, then checkpoints and reads the whole
// state back in 512-row chunks (the way DurableEngine snapshots it). The
// simulated clock, the device's IO counts and bytes, the tree's counters
// and a digest of every row read must match the recorded constants, so a
// refactor of the merge or read path that reorders, adds or drops a
// single IO fails here. The trees are built directly with an explicit
// codec, so the DAMKIT_CODEC fallback cannot move them.
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

#include "blockdev/codec.h"
#include "kv/slice.h"
#include "lsm/lsm_tree.h"
#include "sim/hdd.h"
#include "sim/profiles.h"
#include "sim/ssd.h"
#include "util/hash.h"
#include "util/rng.h"

namespace damkit::lsm {
namespace {

using blockdev::CodecKind;

struct PinnedTree {
  const char* name;
  CompactionStyle style;
  CodecKind codec;
};

// The pinned table's columns.
constexpr PinnedTree kTrees[] = {
    {"LeveledIdentity", CompactionStyle::kLeveled, CodecKind::kIdentity},
    {"LeveledLz", CompactionStyle::kLeveled, CodecKind::kLz},
    {"TieredIdentity", CompactionStyle::kTiered, CodecKind::kIdentity},
    {"TieredLz", CompactionStyle::kTiered, CodecKind::kLz},
};

struct Pin {
  std::string_view counter;
  uint64_t by_tree[4];
};

// A change that means to move the LSM's IO re-records these in a commit of
// its own; any other change must reproduce them exactly. The testbed SSD
// and HDD see the same IOs, so only the simulated clock has a row per
// device.
constexpr Pin kPinned[] = {
    {"io.now.ssd", {1005989977, 973004929, 1082610354, 1068017097}},
    {"io.now.hdd", {25647695998, 24722161265, 28502552818, 28619089115}},
    {"dev.reads", {4924, 4862, 4953, 4953}},
    {"dev.writes", {198, 180, 58, 58}},
    {"dev.bytes_read", {18761519, 16172069, 43947902, 38668416}},
    {"dev.bytes_written", {1472128, 1288446, 799591, 704685}},
    {"dev.batches", {44, 35, 13, 13}},
    {"dev.batch_ios", {162, 148, 52, 52}},
    {"lsm.puts", {4334, 4334, 4334, 4334}},
    {"lsm.gets", {2830, 2830, 2830, 2830}},
    {"lsm.erases", {815, 815, 815, 815}},
    {"lsm.scans", {805, 805, 805, 805}},
    {"lsm.memtable_flushes", {45, 45, 45, 45}},
    {"lsm.compactions", {54, 45, 13, 13}},
    {"lsm.compaction_bytes_in", {1301347, 1146725, 552390, 486217}},
    {"lsm.compaction_bytes_out", {1136602, 993279, 464065, 409518}},
    {"lsm.bloom_negative", {5174, 5250, 6798, 6798}},
    {"lsm.table_probes", {6849, 6926, 8524, 8524}},
    {"lsm.compaction_batches", {44, 35, 13, 13}},
    {"lsm.compaction_batched_ios", {162, 148, 52, 52}},
    {"lsm.flush_bytes_out", {335526, 295167, 335526, 295167}},
    {"lsm.logical_bytes_written", {294553, 294553, 294553, 294553}},
    {"compactions.levels", {3, 3, 2, 2}},
    {"compactions.level0", {11, 11, 11, 11}},
    {"compactions.level1", {30, 25, 2, 2}},
    {"compactions.level2", {13, 9, 0, 0}},
};
// Every tree and device reads the same rows.
constexpr uint64_t kRows = 9351;
constexpr uint64_t kDigest = 17237961479586306711u;

constexpr size_t kChunkRows = 512;

class LsmIoPinTest : public testing::TestWithParam<std::tuple<size_t, bool>> {};

TEST_P(LsmIoPinTest, SameIoSameResults) {
  const auto [tree_index, hdd] = GetParam();
  std::unique_ptr<sim::Device> dev;
  if (hdd) {
    dev = std::make_unique<sim::HddDevice>(sim::testbed_hdd_profile());
  } else {
    dev = std::make_unique<sim::SsdDevice>(sim::testbed_ssd_profile());
  }
  sim::IoContext io(*dev);
  LsmConfig lc;
  lc.memtable_bytes = 8 * 1024;
  lc.sstable_target_bytes = 8 * 1024;
  lc.block_bytes = 1024;
  lc.level0_limit = 3;
  lc.level1_bytes = 24 * 1024;
  lc.size_ratio = 3.0;
  lc.style = kTrees[tree_index].style;
  lc.codec = kTrees[tree_index].codec;
  LsmTree tree(*dev, io, lc);

  uint64_t rows = 0;
  uint64_t digest = kHashSeed;
  const auto absorb = [&](const std::string& key, const std::string& value) {
    digest = mix_bytes(mix_bytes(digest, key), value);
    ++rows;
  };
  Rng rng(7);
  constexpr int kOps = 8000;
  constexpr uint64_t kKeySpace = 2000;
  for (int i = 0; i < kOps; ++i) {
    const std::string key = kv::encode_key(rng.uniform(kKeySpace));
    const uint64_t dice = rng.uniform(100);
    if (dice < 45) {
      const size_t len = 20 + rng.uniform(100);
      ASSERT_TRUE(tree.try_put(key, kv::make_value(rng.next(), len)).ok());
    } else if (dice < 55) {
      ASSERT_TRUE(tree.try_erase(key).ok());
    } else if (dice < 65) {
      ASSERT_TRUE(tree.try_upsert(key, 1 + rng.uniform(9)).ok());
    } else if (dice < 90) {
      StatusOr<std::optional<std::string>> got = tree.try_get(key);
      ASSERT_TRUE(got.ok()) << got.status().to_string();
      digest = mix_word(digest, got->has_value() ? 1 : 0);
      if (got->has_value()) absorb(key, **got);
    } else {
      StatusOr<std::vector<std::pair<std::string, std::string>>> out =
          tree.try_range_scan(key, 1 + rng.uniform(16));
      ASSERT_TRUE(out.ok()) << out.status().to_string();
      digest = mix_word(digest, out->size());
      for (const auto& [k, v] : *out) absorb(k, v);
    }
  }
  ASSERT_TRUE(tree.checkpoint().ok());
  std::string lo;
  while (true) {
    StatusOr<std::vector<std::pair<std::string, std::string>>> out =
        tree.try_range_scan(lo, kChunkRows);
    ASSERT_TRUE(out.ok()) << out.status().to_string();
    for (const auto& [k, v] : *out) absorb(k, v);
    if (out->size() < kChunkRows) break;
    lo = out->back().first;
    lo.push_back('\0');
  }
  tree.check_invariants();
  EXPECT_EQ(rows, kRows);
  EXPECT_EQ(digest, kDigest);

  const sim::DeviceStats& d = dev->stats();
  const LsmStats& s = tree.stats();
  const std::vector<uint64_t>& by_level = tree.compactions_by_level();
  std::map<std::string_view, uint64_t> got = {
      {hdd ? "io.now.hdd" : "io.now.ssd", io.now()},
      {"dev.reads", d.reads},
      {"dev.writes", d.writes},
      {"dev.bytes_read", d.bytes_read},
      {"dev.bytes_written", d.bytes_written},
      {"dev.batches", d.batches},
      {"dev.batch_ios", d.batch_ios},
      {"lsm.puts", s.puts},
      {"lsm.gets", s.gets},
      {"lsm.erases", s.erases},
      {"lsm.scans", s.scans},
      {"lsm.memtable_flushes", s.memtable_flushes},
      {"lsm.compactions", s.compactions},
      {"lsm.compaction_bytes_in", s.compaction_bytes_in},
      {"lsm.compaction_bytes_out", s.compaction_bytes_out},
      {"lsm.bloom_negative", s.bloom_negative},
      {"lsm.table_probes", s.table_probes},
      {"lsm.compaction_batches", s.compaction_batches},
      {"lsm.compaction_batched_ios", s.compaction_batched_ios},
      {"lsm.flush_bytes_out", s.flush_bytes_out},
      {"lsm.logical_bytes_written", s.logical_bytes_written},
      {"compactions.levels", by_level.size()},
  };
  const char* const kLevels[] = {"compactions.level0", "compactions.level1",
                                 "compactions.level2"};
  for (size_t i = 0; i < std::size(kLevels); ++i) {
    got[kLevels[i]] = i < by_level.size() ? by_level[i] : 0;
  }
  for (const Pin& pin : kPinned) {
    if (pin.counter == (hdd ? "io.now.ssd" : "io.now.hdd")) continue;
    ASSERT_TRUE(got.contains(pin.counter)) << pin.counter;
    EXPECT_EQ(got[pin.counter], pin.by_tree[tree_index]) << pin.counter;
  }
  // The workload must reach the paths the pin exists for.
  ASSERT_GE(by_level.size(), 2u);
  EXPECT_GT(by_level[0], 0u);
  EXPECT_GT(by_level[1], 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LsmIoPinTest,
    testing::Combine(testing::Range<size_t>(0, std::size(kTrees)),
                     testing::Bool()),
    [](const testing::TestParamInfo<std::tuple<size_t, bool>>& param) {
      return std::string(kTrees[std::get<0>(param.param)].name) +
             (std::get<1>(param.param) ? "Hdd" : "Ssd");
    });

}  // namespace
}  // namespace damkit::lsm
