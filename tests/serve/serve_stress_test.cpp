// Serving-layer stress: every engine the factory builds — plus a 4-shard
// ShardedEngine — served at k ∈ {1, P, 4P} clients must reproduce the
// single-client reference digest and counters exactly. This is the
// concurrent extension of the cross-engine differential; CI runs it in
// every sanitizer leg with the rest of the suite.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "harness/workload_runner.h"
#include "kv/engine.h"
#include "kv/sharded_engine.h"
#include "sim/profiles.h"
#include "sim/ssd.h"
#include "util/bytes.h"

namespace damkit {
namespace {

kv::EngineConfig stress_config() {
  kv::EngineConfig cfg;
  cfg.btree.node_bytes = 16 * kKiB;
  cfg.btree.cache_bytes = 128 * kKiB;
  cfg.betree.node_bytes = 32 * kKiB;
  cfg.betree.cache_bytes = 128 * kKiB;
  cfg.lsm.memtable_bytes = 32 * kKiB;
  cfg.lsm.sstable_target_bytes = 64 * kKiB;
  cfg.pdam.buffer_bytes = 32 * kKiB;
  return cfg;
}

kv::WorkloadSpec stress_spec() {
  kv::WorkloadSpec spec;
  spec.key_space = 1500;
  spec.value_bytes = 40;
  spec.get_weight = 0.4;
  spec.put_weight = 0.35;
  spec.delete_weight = 0.05;
  spec.scan_weight = 0.05;
  spec.upsert_weight = 0.15;
  spec.scan_length = 20;
  spec.seed = 4711;
  return spec;
}

constexpr uint64_t kOps = 1500;
constexpr uint64_t kBulk = 600;

struct Build {
  std::unique_ptr<sim::SsdDevice> dev;
  std::unique_ptr<sim::IoContext> io;
  std::unique_ptr<kv::Dictionary> dict;
};

Build build(kv::EngineKind kind, bool sharded) {
  Build b;
  b.dev = std::make_unique<sim::SsdDevice>(sim::testbed_ssd_profile());
  b.io = std::make_unique<sim::IoContext>(*b.dev);
  if (sharded) {
    kv::ShardedConfig scfg;
    scfg.shards = 4;
    b.dict = kv::make_sharded_engine(kind, *b.dev, *b.io, stress_config(),
                                     scfg);
  } else {
    b.dict = kv::make_engine(kind, *b.dev, *b.io, stress_config());
  }
  return b;
}

harness::WorkloadRunResult reference_run(kv::EngineKind kind, bool sharded) {
  Build b = build(kind, sharded);
  harness::WorkloadRunner runner(*b.dict, *b.io);
  runner.bulk_load(kBulk, stress_spec());
  return runner.run(stress_spec(), kOps);
}

harness::ConcurrentRunResult concurrent_run(kv::EngineKind kind, bool sharded,
                                            uint64_t clients) {
  Build b = build(kind, sharded);
  harness::WorkloadRunner runner(*b.dict, *b.io);
  runner.bulk_load(kBulk, stress_spec());
  harness::ConcurrentRunOptions copts;
  copts.clients = clients;
  copts.inflight = 2;
  const sim::SsdConfig profile = sim::testbed_ssd_profile();
  copts.replay_device_factory = [profile]() -> std::unique_ptr<sim::Device> {
    return std::make_unique<sim::SsdDevice>(profile);
  };
  copts.lanes = static_cast<size_t>(profile.total_dies());
  copts.lane_of = [profile](uint64_t offset) {
    return static_cast<size_t>(profile.die_of(offset));
  };
  const harness::ConcurrentRunResult result =
      runner.run_concurrent(stress_spec(), kOps, copts);
  b.dict->check_invariants();
  return result;
}

struct StressParam {
  kv::EngineKind kind;
  bool sharded;
  const char* name;
};

class ServeStressTest : public testing::TestWithParam<StressParam> {};

TEST_P(ServeStressTest, EveryClientWidthMatchesTheReference) {
  const StressParam param = GetParam();
  const harness::WorkloadRunResult reference =
      reference_run(param.kind, param.sharded);
  ASSERT_GT(reference.get_hits, 0u);
  // {1, P, 4P} for the testbed device.
  const int p = sim::testbed_ssd_profile().total_dies();
  for (const uint64_t clients :
       {uint64_t{1}, uint64_t(p), uint64_t(4 * p)}) {
    const harness::ConcurrentRunResult run =
        concurrent_run(param.kind, param.sharded, clients);
    EXPECT_EQ(run.base.digest, reference.digest) << "k=" << clients;
    EXPECT_EQ(run.base.get_hits, reference.get_hits) << "k=" << clients;
    EXPECT_EQ(run.base.puts, reference.puts) << "k=" << clients;
    EXPECT_EQ(run.base.failed_ops, 0u) << "k=" << clients;
    EXPECT_EQ(run.latency.count(), kOps) << "k=" << clients;
    EXPECT_GT(run.throughput_ops_per_sec, 0.0) << "k=" << clients;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, ServeStressTest,
    testing::Values(StressParam{kv::EngineKind::kBTree, false, "btree"},
                    StressParam{kv::EngineKind::kBeTree, false, "betree"},
                    StressParam{kv::EngineKind::kOptBeTree, false,
                                "opt_betree"},
                    StressParam{kv::EngineKind::kLsm, false, "lsm"},
                    StressParam{kv::EngineKind::kPdam, false, "pdam"},
                    StressParam{kv::EngineKind::kBTree, true, "sharded"}),
    [](const testing::TestParamInfo<StressParam>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace damkit
