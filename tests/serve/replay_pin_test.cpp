// Pins the serving replay's timeline. Each case bulk-loads an engine on a
// testbed device, serves one seeded op mix to k clients through
// WorkloadRunner::run_concurrent, and checks the replayed makespan, the
// batch and lane counts, the latency summary, and the serial run's digest
// and time against recorded constants. A change to the replay that forms
// a different batch, issues a batch's IOs in another order, or routes an
// IO to another lane or queue pair fails here. Every engine is built with
// the identity codec, so the DAMKIT_CODEC fallback cannot move them.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "harness/workload_runner.h"
#include "kv/engine.h"
#include "sim/hdd.h"
#include "sim/mq_ssd.h"
#include "sim/profiles.h"
#include "sim/ssd.h"
#include "util/bytes.h"
#include "util/hash.h"

namespace damkit {
namespace {

enum class Dev { kSsd, kMqSsd, kHdd };

struct Pin {
  sim::SimTime concurrent_elapsed;
  uint64_t batches;
  uint64_t batch_ios;
  uint64_t max_lane_depth;
  /// mix_word over the lane count, then every lane_ios entry in lane order.
  uint64_t lane_ios_hash;
  uint64_t latency_count;
  uint64_t latency_sum;
  uint64_t latency_min;
  uint64_t latency_max;
  uint64_t latency_p50;
  uint64_t latency_p99;
  uint64_t digest;
  sim::SimTime sim_elapsed;
};

struct PinCase {
  const char* name;
  kv::EngineKind engine;
  Dev device;
  uint64_t clients;
  uint64_t inflight;
  Pin pin;
};

// A change that means to move the replay re-records these in a commit of
// its own; any other change must reproduce them exactly.
constexpr PinCase kCases[] = {
    {"BTreeSsdK1D1", kv::EngineKind::kBTree, Dev::kSsd, 1, 1,
     {2446301536, 8101, 8101, 1, 5164276989165981821u, 6000, 2446301536, 0,
      1279744, 253952, 622592, 6998365954055977002u, 2446301536}},
    {"BTreeSsdK1D4", kv::EngineKind::kBTree, Dev::kSsd, 1, 4,
     {639524355, 8098, 8101, 1, 5164276989165981821u, 6000, 2557668378, 0,
      1399744, 376832, 884736, 6998365954055977002u, 2446301536}},
    {"BTreeSsdK2D1", kv::EngineKind::kBTree, Dev::kSsd, 2, 1,
     {1245210231, 8100, 8101, 1, 5164276989165981821u, 6000, 2483273441, 0,
      1399744, 278528, 786432, 6998365954055977002u, 2446301536}},
    {"BTreeSsdK2D4", kv::EngineKind::kBTree, Dev::kSsd, 2, 4,
     {365063327, 8094, 8101, 2, 5164276989165981821u, 6000, 2911662188, 0,
      1540357, 393216, 983040, 6998365954055977002u, 2446301536}},
    {"BTreeSsdK8D1", kv::EngineKind::kBTree, Dev::kSsd, 8, 1,
     {376273026, 8094, 8101, 1, 5164276989165981821u, 6000, 2895718219, 0,
      1614942, 393216, 983040, 6998365954055977002u, 2446301536}},
    {"BTreeSsdK8D4", kv::EngineKind::kBTree, Dev::kSsd, 8, 4,
     {257776125, 8070, 8101, 3, 5164276989165981821u, 6000, 8088541430, 0,
      4032896, 983040, 2097152, 6998365954055977002u, 2446301536}},
    {"BeTreeSsdK1D1", kv::EngineKind::kBeTree, Dev::kSsd, 1, 1,
     {1294995067, 4791, 5105, 2, 7264302763335597889u, 6000, 1294995067, 0,
      2559488, 0, 1245184, 6998365954055977002u, 1294995067}},
    {"LsmSsdK1D1", kv::EngineKind::kLsm, Dev::kSsd, 1, 1,
     {570646825, 2164, 2197, 2, 6617317970263713520u, 6000, 570646825, 0,
      10926101, 0, 1310720, 6998365954055977002u, 570646825}},
    {"BTreeMqSsdK8D4", kv::EngineKind::kBTree, Dev::kMqSsd, 8, 4,
     {448480000, 7650, 8101, 7, 7668294895350711896u, 6000, 14099671000, 0,
      12617000, 2031616, 7340032, 6998365954055977002u, 2447350000}},
    {"BTreeHddK4D4", kv::EngineKind::kBTree, Dev::kHdd, 4, 4,
     {41417407695, 8086, 8101, 16, 9895826561757924011u, 6000, 656934643142, 0,
      383203110, 96468992, 209715200, 6998365954055977002u, 40768357744}},
};

constexpr uint64_t kBulkItems = 8000;
constexpr uint64_t kOps = 6000;

// Small nodes, cache and memtable against the working set, so ops reach
// the device and the Bε-tree's flushes and the LSM's compactions issue
// multi-IO stages.
kv::EngineConfig engine_config() {
  kv::EngineConfig cfg;
  cfg.btree.node_bytes = 16 * kKiB;
  cfg.btree.cache_bytes = 64 * kKiB;
  cfg.betree.node_bytes = 16 * kKiB;
  cfg.betree.cache_bytes = 64 * kKiB;
  cfg.lsm.memtable_bytes = 64 * kKiB;
  cfg.codec = blockdev::CodecKind::kIdentity;
  return cfg;
}

kv::WorkloadSpec pin_spec() {
  kv::WorkloadSpec spec;
  spec.key_space = 20000;
  spec.value_bytes = 200;
  spec.get_weight = 0.4;
  spec.put_weight = 0.4;
  spec.delete_weight = 0.05;
  spec.scan_weight = 0.05;
  spec.upsert_weight = 0.1;
  spec.scan_length = 25;
  spec.seed = 2026;
  return spec;
}

std::unique_ptr<sim::Device> make_device(Dev device) {
  switch (device) {
    case Dev::kSsd:
      return std::make_unique<sim::SsdDevice>(sim::testbed_ssd_profile());
    case Dev::kMqSsd:
      return std::make_unique<sim::MqSsdDevice>(sim::testbed_mq_profile());
    case Dev::kHdd:
      return std::make_unique<sim::HddDevice>(sim::testbed_hdd_profile());
  }
  return nullptr;
}

uint64_t lane_ios_hash(const std::vector<uint64_t>& lane_ios) {
  uint64_t h = mix_word(kHashSeed, lane_ios.size());
  for (const uint64_t n : lane_ios) h = mix_word(h, n);
  return h;
}

class ReplayPinTest : public testing::TestWithParam<size_t> {};

TEST_P(ReplayPinTest, SameTimeline) {
  const PinCase& c = kCases[GetParam()];
  const std::unique_ptr<sim::Device> dev = make_device(c.device);
  sim::IoContext io(*dev);
  const auto dict = kv::make_engine(c.engine, *dev, io, engine_config());
  harness::WorkloadRunner runner(*dict, io);
  runner.bulk_load(kBulkItems, pin_spec());

  harness::ConcurrentRunOptions opts;
  opts.clients = c.clients;
  opts.inflight = c.inflight;
  opts.flush_at_end = false;
  const Dev device = c.device;
  opts.replay_device_factory = [device] { return make_device(device); };
  if (device != Dev::kHdd) {
    sim::SsdConfig profile = sim::testbed_ssd_profile();
    if (device == Dev::kMqSsd) profile = sim::testbed_mq_profile();
    opts.lanes = static_cast<size_t>(profile.total_dies());
    opts.lane_of = [profile](uint64_t offset) {
      return static_cast<size_t>(profile.die_of(offset));
    };
  }
  const harness::ConcurrentRunResult r =
      runner.run_concurrent(pin_spec(), kOps, opts);

  const Pin& want = c.pin;
  EXPECT_EQ(r.concurrent_elapsed, want.concurrent_elapsed);
  EXPECT_EQ(r.batches, want.batches);
  EXPECT_EQ(r.batch_ios, want.batch_ios);
  EXPECT_EQ(r.max_lane_depth, want.max_lane_depth);
  EXPECT_EQ(lane_ios_hash(r.lane_ios), want.lane_ios_hash)
      << testing::PrintToString(r.lane_ios);
  EXPECT_EQ(r.latency.count(), want.latency_count);
  EXPECT_EQ(r.latency.sum(), want.latency_sum);
  EXPECT_EQ(r.latency.min(), want.latency_min);
  EXPECT_EQ(r.latency.max(), want.latency_max);
  EXPECT_EQ(r.latency.percentile(50.0), want.latency_p50);
  EXPECT_EQ(r.latency.percentile(99.0), want.latency_p99);
  EXPECT_EQ(r.base.digest, want.digest);
  EXPECT_EQ(r.base.sim_elapsed, want.sim_elapsed);
  // At one client and depth 1 a batch is one op's stage, so more IOs than
  // batches and two IOs on one lane show that the case reaches stages of
  // several IOs (the Bε-tree's flushes, the LSM's compactions).
  if (c.engine != kv::EngineKind::kBTree) {
    EXPECT_GT(r.batch_ios, r.batches);
    EXPECT_EQ(r.max_lane_depth, 2u);
  }
}

std::string case_name(const testing::TestParamInfo<size_t>& param) {
  return kCases[param.param].name;
}

INSTANTIATE_TEST_SUITE_P(Cases, ReplayPinTest,
                         testing::Range<size_t>(0, std::size(kCases)),
                         case_name);

}  // namespace
}  // namespace damkit
