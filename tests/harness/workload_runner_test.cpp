// WorkloadRunner: deterministic generic driving, its concurrent form,
// checkpoint retries, and the fault-soak driver on a clean device (its
// faulting behavior is covered by the integration soak).
#include "harness/workload_runner.h"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "kv/engine.h"
#include "kv/slice.h"
#include "sim/profiles.h"
#include "sim/ssd.h"
#include "util/bytes.h"

namespace damkit {
namespace {

kv::EngineConfig small_config() {
  kv::EngineConfig cfg;
  cfg.btree.node_bytes = 16 * kKiB;
  cfg.btree.cache_bytes = 256 * kKiB;
  cfg.betree.node_bytes = 32 * kKiB;
  cfg.betree.cache_bytes = 256 * kKiB;
  cfg.lsm.memtable_bytes = 32 * kKiB;
  cfg.lsm.sstable_target_bytes = 64 * kKiB;
  cfg.pdam.buffer_bytes = 32 * kKiB;
  return cfg;
}

kv::WorkloadSpec mixed_spec() {
  kv::WorkloadSpec spec;
  spec.key_space = 2000;
  spec.value_bytes = 48;
  spec.get_weight = 0.4;
  spec.put_weight = 0.4;
  spec.delete_weight = 0.05;
  spec.scan_weight = 0.05;
  spec.upsert_weight = 0.1;
  spec.scan_length = 25;
  spec.seed = 1234;
  return spec;
}

TEST(WorkloadRunnerTest, RunIsDeterministicForAGivenSpec) {
  const auto run_once = [] {
    sim::SsdDevice dev(sim::testbed_ssd_profile());
    sim::IoContext io(dev);
    const auto dict =
        kv::make_engine(kv::EngineKind::kBTree, dev, io, small_config());
    harness::WorkloadRunner runner(*dict, io);
    runner.bulk_load(1000, mixed_spec());
    return runner.run(mixed_spec(), 3000);
  };
  const harness::WorkloadRunResult a = run_once();
  const harness::WorkloadRunResult b = run_once();
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.sim_elapsed, b.sim_elapsed);
  EXPECT_EQ(a.puts, b.puts);
  EXPECT_EQ(a.gets, b.gets);
  EXPECT_EQ(a.puts + a.gets + a.erases + a.scans + a.upserts, 3000u);
  EXPECT_GT(a.get_hits, 0u);
  EXPECT_EQ(a.failed_ops, 0u);
}

TEST(WorkloadRunnerTest, FallibleRunMatchesInfallibleOnCleanDevice) {
  // Both modes drive the same try_* calls; `fallible` only decides whether
  // a non-OK status is counted or aborts. On a clean device nothing fails,
  // so one fallible run is the infallible run.
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  const auto dict =
      kv::make_engine(kv::EngineKind::kBeTree, dev, io, small_config());
  harness::WorkloadRunner runner(*dict, io);
  runner.bulk_load(500, mixed_spec());
  harness::WorkloadRunOptions options;
  options.fallible = true;
  const harness::WorkloadRunResult r = runner.run(mixed_spec(), 2000, options);
  EXPECT_EQ(r.failed_ops, 0u);
  EXPECT_EQ(r.puts + r.gets + r.erases + r.scans + r.upserts, 2000u);
  EXPECT_GT(r.get_hits, 0u);
}

TEST(WorkloadRunnerTest, RunConcurrentMatchesRunAndAddsTheTimeline) {
  const auto build = [] {
    auto dev = std::make_unique<sim::SsdDevice>(sim::testbed_ssd_profile());
    auto io = std::make_unique<sim::IoContext>(*dev);
    auto dict = kv::make_engine(kv::EngineKind::kBTree, *dev, *io,
                                small_config());
    return std::make_tuple(std::move(dev), std::move(io), std::move(dict));
  };
  auto [ref_dev, ref_io, ref_dict] = build();
  harness::WorkloadRunner ref_runner(*ref_dict, *ref_io);
  ref_runner.bulk_load(1000, mixed_spec());
  const harness::WorkloadRunResult reference =
      ref_runner.run(mixed_spec(), 3000);

  auto [dev, io, dict] = build();
  harness::WorkloadRunner runner(*dict, *io);
  runner.bulk_load(1000, mixed_spec());
  harness::ConcurrentRunOptions copts;
  copts.clients = 4;
  copts.inflight = 2;
  const sim::SsdConfig profile = sim::testbed_ssd_profile();
  copts.replay_device_factory = [profile] {
    return std::make_unique<sim::SsdDevice>(profile);
  };
  copts.lanes = static_cast<size_t>(profile.total_dies());
  copts.lane_of = [profile](uint64_t offset) {
    return static_cast<size_t>(profile.die_of(offset));
  };
  const harness::ConcurrentRunResult run =
      runner.run_concurrent(mixed_spec(), 3000, copts);

  // The base block reproduces run() exactly: same data observed, same
  // counters, same serial simulated time.
  EXPECT_EQ(run.base.digest, reference.digest);
  EXPECT_EQ(run.base.get_hits, reference.get_hits);
  EXPECT_EQ(run.base.puts, reference.puts);
  EXPECT_EQ(run.base.sim_elapsed, reference.sim_elapsed);
  // The concurrent timeline rides on top: a full latency distribution and
  // a makespan no worse than the serialized one.
  EXPECT_EQ(run.latency.count(), 3000u);
  EXPECT_GE(run.speedup, 1.0);
  EXPECT_GT(run.throughput_ops_per_sec, 0.0);
  EXPECT_GT(run.batches, 0u);
  uint64_t lane_total = 0;
  for (const uint64_t n : run.lane_ios) lane_total += n;
  EXPECT_EQ(lane_total, run.batch_ios);
}

// The returned trace is exactly what the replay re-timed: every IO the
// serving device served over the op stream, each dispatched to one lane.
TEST(WorkloadRunnerTest, RunConcurrentReturnsTheReplayedTrace) {
  const sim::SsdConfig profile = sim::testbed_ssd_profile();
  sim::SsdDevice dev(profile);
  sim::IoContext io(dev);
  // The LSM's 32 KiB memtable makes the op stream flush, compact and read
  // tables; a B-tree this small would serve it from cache.
  const auto dict =
      kv::make_engine(kv::EngineKind::kLsm, dev, io, small_config());
  harness::WorkloadRunner runner(*dict, io);
  runner.bulk_load(1000, mixed_spec());

  harness::ConcurrentRunOptions copts;
  copts.flush_at_end = false;  // device stats then cover the op stream only
  EXPECT_TRUE(runner.run_concurrent(mixed_spec(), 500, copts).trace.empty());

  copts.clients = 4;
  copts.inflight = 2;
  copts.replay_device_factory = [profile] {
    return std::make_unique<sim::SsdDevice>(profile);
  };
  copts.lanes = static_cast<size_t>(profile.total_dies());
  copts.lane_of = [profile](uint64_t offset) {
    return static_cast<size_t>(profile.die_of(offset));
  };
  const sim::DeviceStats before = dev.stats();
  const harness::ConcurrentRunResult run =
      runner.run_concurrent(mixed_spec(), 3000, copts);
  const sim::DeviceStats& after = dev.stats();
  const uint64_t served_ios =
      (after.reads - before.reads) + (after.writes - before.writes);
  ASSERT_GT(served_ios, 0u);
  EXPECT_EQ(run.trace.size(), served_ios);
  uint64_t lane_total = 0;
  for (const uint64_t n : run.lane_ios) lane_total += n;
  EXPECT_EQ(lane_total, run.trace.size());
}

TEST(WorkloadRunnerTest, CheckpointWithRetriesSucceedsImmediatelyWhenClean) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  const auto dict =
      kv::make_engine(kv::EngineKind::kLsm, dev, io, small_config());
  for (uint64_t i = 0; i < 500; ++i) {
    dict->put(kv::encode_key(i), kv::make_value(i, 40));
  }
  EXPECT_TRUE(harness::checkpoint_with_retries(*dict, 10).ok());
}

TEST(WorkloadRunnerTest, FaultSoakOnCleanDeviceIsViolationFree) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  const auto dict =
      kv::make_engine(kv::EngineKind::kBTree, dev, io, small_config());
  harness::SoakSpec spec;
  spec.ops = 2000;
  spec.key_space = 1000;
  spec.seed = 7;
  const harness::SoakReport report = harness::run_fault_soak(*dict, spec);
  EXPECT_EQ(report.failed_ops, 0u);
  EXPECT_EQ(report.ok_ops, spec.ops);
  EXPECT_TRUE(report.checkpoint_ok);
  EXPECT_TRUE(report.violations.empty());
}

}  // namespace
}  // namespace damkit
