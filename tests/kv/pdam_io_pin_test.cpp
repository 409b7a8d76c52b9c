// Pins the PDAM engine's device traffic and results. Each case bulk loads
// a base run, then runs one seeded mix of puts, erases, upserts, gets and
// 50-row scans that merges the write buffer at least three times, then
// checkpoints and reads the whole state back in 512-row chunks (the way
// DurableEngine snapshots it). The simulated clock, the device's IO counts
// and bytes, every metric the engine exports and a digest of every row
// read must match the recorded constants, so a refactor of the merge, the
// read path or the index geometry that moves a single IO fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "kv/engine.h"
#include "kv/slice.h"
#include "sim/hdd.h"
#include "sim/profiles.h"
#include "sim/ssd.h"
#include "stats/metrics.h"
#include "util/bytes.h"
#include "util/hash.h"
#include "util/rng.h"

namespace damkit::kv {
namespace {

struct Pin {
  std::string_view name;
  uint64_t value;
};

// A change that means to move the PDAM engine's IO re-records these in a
// commit of its own; any other change must reproduce them exactly. The
// testbed SSD and HDD see the same IOs, so only the simulated clock has a
// constant per device.
constexpr uint64_t kNowSsd = 2593549678;
constexpr uint64_t kNowHdd = 55052670700;
constexpr Pin kPinned[] = {
    {"dev.reads", 8379},
    {"dev.writes", 684},
    {"dev.bytes_read", 255221760},
    {"dev.bytes_written", 2790098},
    {"dev.batches", 0},
    {"dev.batch_ios", 0},
    {"pdam.puts", 3241},
    {"pdam.gets", 2377},
    {"pdam.erases", 797},
    {"pdam.upserts", 793},
    {"pdam.scans", 803},
    {"pdam.buffer_merges", 5},
    {"pdam.merge_bytes_written", 2790098},
    {"pdam.node_reads", 7576},
    {"pdam.height", 2},
    {"pdam.base_entries", 5236},
    {"pdam.buffer_entries", 0},
    {"pdam.buffer_bytes", 0},
};
// Both devices read the same rows.
constexpr uint64_t kRows = 46085;
constexpr uint64_t kDigest = 7324196034719238531u;

constexpr uint64_t kLoadKeys = 4000;
constexpr size_t kScanRows = 50;
constexpr size_t kChunkRows = 512;

class PdamIoPinTest : public testing::TestWithParam<bool> {};

TEST_P(PdamIoPinTest, SameIoSameResults) {
  const bool hdd = GetParam();
  std::unique_ptr<sim::Device> dev;
  if (hdd) {
    dev = std::make_unique<sim::HddDevice>(sim::testbed_hdd_profile());
  } else {
    dev = std::make_unique<sim::SsdDevice>(sim::testbed_ssd_profile());
  }
  sim::IoContext io(*dev);
  EngineConfig cfg;
  cfg.pdam.buffer_bytes = 64 * kKiB;
  const std::unique_ptr<Dictionary> eng =
      make_engine(EngineKind::kPdam, *dev, io, cfg);

  // The base holds the even ids; the mix draws from twice that range, so
  // half its keys are new to the base.
  eng->bulk_load(kLoadKeys, [](uint64_t i) {
    return std::make_pair(encode_key(2 * i), make_value(i, 100));
  });

  uint64_t rows = 0;
  uint64_t digest = kHashSeed;
  const auto absorb = [&](const std::string& key, const std::string& value) {
    digest = mix_bytes(mix_bytes(digest, key), value);
    ++rows;
  };
  Rng rng(11);
  constexpr int kOps = 8000;
  for (int i = 0; i < kOps; ++i) {
    const std::string key = encode_key(rng.uniform(2 * kLoadKeys));
    const uint64_t dice = rng.uniform(100);
    if (dice < 40) {
      const size_t len = 20 + rng.uniform(100);
      ASSERT_TRUE(eng->try_put(key, make_value(rng.next(), len)).ok());
    } else if (dice < 50) {
      ASSERT_TRUE(eng->try_erase(key).ok());
    } else if (dice < 60) {
      ASSERT_TRUE(eng->try_upsert(key, 1 + rng.uniform(9)).ok());
    } else if (dice < 90) {
      StatusOr<std::optional<std::string>> got = eng->try_get(key);
      ASSERT_TRUE(got.ok()) << got.status().to_string();
      digest = mix_word(digest, got->has_value() ? 1 : 0);
      if (got->has_value()) absorb(key, **got);
    } else {
      StatusOr<std::vector<std::pair<std::string, std::string>>> out =
          eng->try_range_scan(key, kScanRows);
      ASSERT_TRUE(out.ok()) << out.status().to_string();
      digest = mix_word(digest, out->size());
      for (const auto& [k, v] : *out) absorb(k, v);
    }
  }
  ASSERT_TRUE(eng->checkpoint().ok());
  std::string lo;
  while (true) {
    StatusOr<std::vector<std::pair<std::string, std::string>>> out =
        eng->try_range_scan(lo, kChunkRows);
    ASSERT_TRUE(out.ok()) << out.status().to_string();
    for (const auto& [k, v] : *out) absorb(k, v);
    if (out->size() < kChunkRows) break;
    lo = out->back().first;
    lo.push_back('\0');
  }
  eng->check_invariants();
  EXPECT_EQ(rows, kRows);
  EXPECT_EQ(digest, kDigest);
  EXPECT_EQ(io.now(), hdd ? kNowHdd : kNowSsd);

  const sim::DeviceStats& d = dev->stats();
  std::map<std::string, uint64_t, std::less<>> got = {
      {"dev.reads", d.reads},
      {"dev.writes", d.writes},
      {"dev.bytes_read", d.bytes_read},
      {"dev.bytes_written", d.bytes_written},
      {"dev.batches", d.batches},
      {"dev.batch_ios", d.batch_ios},
  };
  stats::MetricsRegistry reg;
  eng->export_metrics(reg, "pdam.");
  reg.for_each_counter(
      [&](const std::string& name, uint64_t value) { got[name] = value; });
  reg.for_each_gauge([&](const std::string& name, double value) {
    got[name] = static_cast<uint64_t>(value);
  });
  for (const Pin& pin : kPinned) {
    const auto it = got.find(pin.name);
    ASSERT_NE(it, got.end()) << pin.name;
    EXPECT_EQ(it->second, pin.value) << pin.name;
    got.erase(it);
  }
  // Every exported metric is pinned.
  for (const auto& [name, value] : got) ADD_FAILURE() << "unpinned " << name;
  // The workload must reach the paths the pin exists for: at least three
  // merges in the mix, then the checkpoint's.
  EXPECT_GE(reg.counter("pdam.buffer_merges"), 4u);
}

std::string device_name(const testing::TestParamInfo<bool>& param) {
  return param.param ? "Hdd" : "Ssd";
}

INSTANTIATE_TEST_SUITE_P(Devices, PdamIoPinTest, testing::Bool(), device_name);

}  // namespace
}  // namespace damkit::kv
