// DurableEngine contract tests: logged mutations survive abandon/recover
// exactly (the durable prefix), buffered records die with the crash,
// checkpoints truncate the WAL and move recovery onto the snapshot, and a
// checkpoint interrupted by a device crash stays retryable afterwards.
#include "wal/durable_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "harness/crash.h"
#include "kv/engine.h"
#include "kv/slice.h"
#include "sim/fault_injection.h"
#include "sim/profiles.h"
#include "sim/ssd.h"
#include "stats/metrics.h"
#include "util/bytes.h"

namespace damkit::wal {
namespace {

using sim::FaultConfig;
using sim::FaultInjectingDevice;
using sim::IoContext;
using sim::SsdDevice;

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

std::string key_of(uint64_t i) { return kv::encode_key(i, 16); }
std::string value_of(uint64_t i) { return kv::make_value(i, 64); }

TEST(DurableEngineTest, CommittedPutsSurviveAbandonAndRecover) {
  SsdDevice dev(sim::testbed_ssd_profile());
  IoContext io(dev);
  const DurabilityConfig dcfg =
      default_durability_config(dev.capacity_bytes());
  const auto make_inner = [&] {
    return kv::make_engine(kv::EngineKind::kBTree, dev, io, small_config());
  };
  auto eng = std::make_unique<DurableEngine>(make_inner(), dev, io, dcfg);
  EXPECT_EQ(eng->name(), "btree+wal");
  for (uint64_t i = 0; i < 100; ++i) eng->put(key_of(i), value_of(i));
  eng->flush();
  const uint64_t live_digest = harness::state_digest(*eng);
  EXPECT_EQ(eng->durable_mutations(), 100u);

  eng->abandon();  // dirty cache pages die without writeback
  eng.reset();

  RecoveryReport report;
  StatusOr<std::unique_ptr<DurableEngine>> recovered =
      DurableEngine::recover(make_inner, dev, io, dcfg, &report);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(report.snapshot_entries, 0u);
  EXPECT_EQ(report.replayed_records, 100u);
  EXPECT_EQ(report.durable_lsn, 100u);
  EXPECT_FALSE(report.torn_tail);
  EXPECT_EQ((*recovered)->durable_mutations(), 100u);
  EXPECT_EQ(harness::state_digest(**recovered), live_digest);
  for (uint64_t i = 0; i < 100; ++i) {
    const std::optional<std::string> got = (*recovered)->get(key_of(i));
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_EQ(*got, value_of(i)) << i;
  }
}

TEST(DurableEngineTest, BufferedRecordsDieWithTheCrash) {
  SsdDevice dev(sim::testbed_ssd_profile());
  IoContext io(dev);
  DurabilityConfig dcfg = default_durability_config(dev.capacity_bytes());
  dcfg.wal.group_ops = 8;
  const auto make_inner = [&] {
    return kv::make_engine(kv::EngineKind::kBTree, dev, io, small_config());
  };
  auto eng = std::make_unique<DurableEngine>(make_inner(), dev, io, dcfg);
  // 10 puts: one full group of 8 commits, 2 stay buffered — and buffered
  // records are by definition NOT durable.
  for (uint64_t i = 0; i < 10; ++i) eng->put(key_of(i), value_of(i));
  EXPECT_EQ(eng->log().buffered_records(), 2u);
  eng->abandon();
  eng.reset();

  StatusOr<std::unique_ptr<DurableEngine>> recovered =
      DurableEngine::recover(make_inner, dev, io, dcfg, nullptr);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->durable_mutations(), 8u);
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE((*recovered)->get(key_of(i)).has_value()) << i;
  }
  EXPECT_FALSE((*recovered)->get(key_of(8)).has_value());
  EXPECT_FALSE((*recovered)->get(key_of(9)).has_value());
}

TEST(DurableEngineTest, CheckpointTruncatesWalAndRecoversFromSnapshot) {
  SsdDevice dev(sim::testbed_ssd_profile());
  IoContext io(dev);
  DurabilityConfig dcfg = default_durability_config(dev.capacity_bytes());
  dcfg.wal.group_ops = 1;
  const auto make_inner = [&] {
    return kv::make_engine(kv::EngineKind::kBeTree, dev, io, small_config());
  };
  auto eng = std::make_unique<DurableEngine>(make_inner(), dev, io, dcfg);
  for (uint64_t i = 0; i < 50; ++i) eng->put(key_of(i), value_of(i));
  ASSERT_TRUE(eng->checkpoint().ok());
  EXPECT_EQ(eng->checkpoints(), 1u);
  EXPECT_EQ(eng->log().durable_bytes(), 0u) << "checkpoint must truncate";
  for (uint64_t i = 50; i < 60; ++i) eng->put(key_of(i), value_of(i));
  const uint64_t live_digest = harness::state_digest(*eng);
  eng->abandon();
  eng.reset();

  RecoveryReport report;
  StatusOr<std::unique_ptr<DurableEngine>> recovered =
      DurableEngine::recover(make_inner, dev, io, dcfg, &report);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(report.snapshot_entries, 50u);
  EXPECT_EQ(report.snapshot_lsn, 50u);
  EXPECT_EQ(report.replayed_records, 10u);
  EXPECT_EQ((*recovered)->durable_mutations(), 60u);
  EXPECT_EQ(harness::state_digest(**recovered), live_digest);
}

TEST(DurableEngineTest, ErasesAndUpsertsReplayExactly) {
  SsdDevice dev(sim::testbed_ssd_profile());
  IoContext io(dev);
  DurabilityConfig dcfg = default_durability_config(dev.capacity_bytes());
  dcfg.wal.group_ops = 1;
  const auto make_inner = [&] {
    return kv::make_engine(kv::EngineKind::kBTree, dev, io, small_config());
  };
  // Reference: the same mutations against a bare engine.
  SsdDevice ref_dev(sim::testbed_ssd_profile());
  IoContext ref_io(ref_dev);
  const auto ref =
      kv::make_engine(kv::EngineKind::kBTree, ref_dev, ref_io, small_config());

  auto eng = std::make_unique<DurableEngine>(make_inner(), dev, io, dcfg);
  for (uint64_t i = 0; i < 40; ++i) {
    eng->put(key_of(i), value_of(i));
    ref->put(key_of(i), value_of(i));
  }
  for (uint64_t i = 0; i < 40; i += 4) {
    eng->erase(key_of(i));
    ref->erase(key_of(i));
  }
  for (uint64_t i = 100; i < 120; ++i) {
    const auto delta = static_cast<int64_t>(i * 7) - 400;
    eng->upsert(key_of(i), delta);
    ref->upsert(key_of(i), delta);
  }
  ref->flush();
  eng->abandon();
  eng.reset();

  StatusOr<std::unique_ptr<DurableEngine>> recovered =
      DurableEngine::recover(make_inner, dev, io, dcfg, nullptr);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(harness::state_digest(**recovered), harness::state_digest(*ref));
}

TEST(DurableEngineTest, LongKeysAreRejectedBeforeTheyAreLogged) {
  // A key past the 65,535-byte record limit must never reach the log: a
  // logged record the inner engine rejects would fail replay.
  SsdDevice dev(sim::testbed_ssd_profile());
  IoContext io(dev);
  DurabilityConfig dcfg = default_durability_config(dev.capacity_bytes());
  dcfg.wal.group_ops = 1;
  kv::EngineConfig cfg = small_config();
  cfg.btree.node_bytes = kMiB;  // room for entries of that size
  cfg.btree.cache_bytes = 8 * kMiB;
  const auto make_inner = [&] {
    return kv::make_engine(kv::EngineKind::kBTree, dev, io, cfg);
  };
  auto eng = std::make_unique<DurableEngine>(make_inner(), dev, io, dcfg);
  for (uint64_t i = 0; i < 20; ++i) eng->put(key_of(i), value_of(i));
  const std::string key(65536, 'k');
  EXPECT_EQ(eng->try_put(key, "v").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(eng->try_erase(key).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(eng->try_upsert(key, 1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(eng->durable_mutations(), 20u);
  const uint64_t live_digest = harness::state_digest(*eng);
  eng->abandon();
  eng.reset();

  RecoveryReport report;
  StatusOr<std::unique_ptr<DurableEngine>> recovered =
      DurableEngine::recover(make_inner, dev, io, dcfg, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_EQ(report.replayed_records, 20u);
  EXPECT_EQ(harness::state_digest(**recovered), live_digest);
}

TEST(DurableEngineTest, PutLargerThanTheWalRegionIsRejected) {
  // The bare engines take a 40,000,000-byte value, but its record cannot
  // fit the default 32 MiB WAL region. The put must fail as an argument
  // error before the inner engine sees it, not abort.
  SsdDevice dev(sim::testbed_ssd_profile());
  IoContext io(dev);
  const DurabilityConfig dcfg =
      default_durability_config(dev.capacity_bytes());
  const auto make_inner = [&] {
    return kv::make_engine(kv::EngineKind::kLsm, dev, io, small_config());
  };
  auto eng = std::make_unique<DurableEngine>(make_inner(), dev, io, dcfg);
  for (uint64_t i = 0; i < 20; ++i) eng->put(key_of(i), value_of(i));
  const auto before = eng->range_scan("", 1000);

  const std::string huge(40'000'000, 'v');
  EXPECT_EQ(eng->try_put("k", huge).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(eng->durable_mutations(), 20u);
  EXPECT_EQ(eng->range_scan("", 1000), before);

  ASSERT_TRUE(eng->try_put(key_of(20), value_of(20)).ok());
  EXPECT_EQ(eng->durable_mutations(), 21u);
  eng->flush();
  const uint64_t live_digest = harness::state_digest(*eng);
  eng->abandon();
  eng.reset();

  RecoveryReport report;
  StatusOr<std::unique_ptr<DurableEngine>> recovered =
      DurableEngine::recover(make_inner, dev, io, dcfg, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_EQ(report.replayed_records, 21u);
  EXPECT_EQ(harness::state_digest(**recovered), live_digest);
}

TEST(DurableEngineTest, InnerRejectionsAreSkippedOnReplay) {
  // The B-tree and Bε-tree reject an entry over node_bytes / 2 only after
  // its record is logged. Recovery must skip that record, as the live call
  // did, rather than fail on it.
  for (const kv::EngineKind kind :
       {kv::EngineKind::kBTree, kv::EngineKind::kBeTree}) {
    SCOPED_TRACE(kv::engine_kind_name(kind));
    SsdDevice dev(sim::testbed_ssd_profile());
    IoContext io(dev);
    const DurabilityConfig dcfg =
        default_durability_config(dev.capacity_bytes());
    kv::EngineConfig cfg = small_config();
    cfg.btree.node_bytes = 4 * kKiB;
    cfg.betree.node_bytes = 4 * kKiB;
    const auto make_inner = [&] { return kv::make_engine(kind, dev, io, cfg); };
    auto eng = std::make_unique<DurableEngine>(make_inner(), dev, io, dcfg);
    for (uint64_t i = 0; i < 20; ++i) eng->put(key_of(i), value_of(i));
    EXPECT_EQ(eng->try_put(key_of(3), std::string(4000, 'x')).code(),
              StatusCode::kInvalidArgument);
    eng->put(key_of(20), value_of(20));
    EXPECT_EQ(eng->durable_mutations(), 22u);
    ASSERT_TRUE(eng->log().commit().ok());
    const uint64_t live_digest = harness::state_digest(*eng);
    eng->abandon();
    eng.reset();

    RecoveryReport report;
    StatusOr<std::unique_ptr<DurableEngine>> recovered =
        DurableEngine::recover(make_inner, dev, io, dcfg, &report);
    ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
    EXPECT_EQ(report.replayed_records, 22u);
    EXPECT_EQ(report.rejected_records, 1u);
    EXPECT_EQ((*recovered)->durable_mutations(), 22u);
    EXPECT_EQ(harness::state_digest(**recovered), live_digest);
    EXPECT_EQ((*recovered)->get(key_of(3)), value_of(3));
  }
}

TEST(DurableEngineTest, BulkLoadIsImmediatelyRecoverable) {
  SsdDevice dev(sim::testbed_ssd_profile());
  IoContext io(dev);
  const DurabilityConfig dcfg =
      default_durability_config(dev.capacity_bytes());
  const auto make_inner = [&] {
    return kv::make_engine(kv::EngineKind::kLsm, dev, io, small_config());
  };
  auto eng = std::make_unique<DurableEngine>(make_inner(), dev, io, dcfg);
  eng->bulk_load(200, [](uint64_t i) {
    return std::make_pair(key_of(i), value_of(i));
  });
  const uint64_t live_digest = harness::state_digest(*eng);
  // No mutations yet: the snapshot written by bulk_load IS the state.
  eng->abandon();
  eng.reset();

  RecoveryReport report;
  StatusOr<std::unique_ptr<DurableEngine>> recovered =
      DurableEngine::recover(make_inner, dev, io, dcfg, &report);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(report.snapshot_entries, 200u);
  EXPECT_EQ(report.replayed_records, 0u);
  EXPECT_EQ(harness::state_digest(**recovered), live_digest);
}

TEST(DurableEngineTest, AutoCheckpointKeepsTheWalBounded) {
  SsdDevice dev(sim::testbed_ssd_profile());
  IoContext io(dev);
  DurabilityConfig dcfg = default_durability_config(dev.capacity_bytes());
  dcfg.wal.group_ops = 1;
  dcfg.checkpoint_wal_bytes = 8 * kKiB;
  const auto make_inner = [&] {
    return kv::make_engine(kv::EngineKind::kBTree, dev, io, small_config());
  };
  auto eng = std::make_unique<DurableEngine>(make_inner(), dev, io, dcfg);
  for (uint64_t i = 0; i < 300; ++i) eng->put(key_of(i), value_of(i));
  EXPECT_GT(eng->checkpoints(), 0u);
  EXPECT_LT(eng->log().durable_bytes() + eng->log().buffered_bytes(),
            2 * dcfg.checkpoint_wal_bytes + dcfg.wal.block_bytes);
  stats::MetricsRegistry reg;
  eng->export_metrics(reg, "e.");
  EXPECT_GT(reg.counter("e.wal.auto_checkpoints"), 0u);
  EXPECT_GT(reg.counter("e.wal.truncations"), 0u);
}

// An append whose own group commit fails keeps its record buffered with
// its LSN, and the next successful commit makes it durable. The engine must
// apply that mutation live as well, or a later acknowledged upsert of the
// key reads one way live and another after recovery.
TEST(DurableEngineTest, MutationLoggedByAFailedGroupCommitIsApplied) {
  SsdDevice inner(sim::testbed_ssd_profile());
  FaultConfig faults;
  faults.seed = 9;
  FaultInjectingDevice dev(inner, faults);
  IoContext io(dev);
  DurabilityConfig dcfg = default_durability_config(dev.capacity_bytes());
  dcfg.wal.group_ops = 4;
  const auto make_inner = [&] {
    return kv::make_engine(kv::EngineKind::kBTree, dev, io, small_config());
  };
  auto eng = std::make_unique<DurableEngine>(make_inner(), dev, io, dcfg);
  for (uint64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(eng->try_put(key_of(i), value_of(i)).ok());
  }
  dev.crash_after(0);  // put 4 fills the group; its commit hits the crash
  EXPECT_FALSE(eng->try_put(key_of(4), kv::encode_counter(7)).ok());
  dev.reboot();
  ASSERT_TRUE(eng->try_upsert(key_of(4), 1).ok());
  eng->flush();
  const std::optional<std::string> live = eng->get(key_of(4));
  EXPECT_EQ(live, kv::encode_counter(8));

  eng->abandon();
  eng.reset();
  StatusOr<std::unique_ptr<DurableEngine>> recovered =
      DurableEngine::recover(make_inner, dev, io, dcfg, nullptr);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->get(key_of(4)), live);
}

// The satellite regression: a checkpoint interrupted by a device crash
// must fail with a Status (not abort, not silently succeed), leave every
// layer retryable, and the retried checkpoint must land cleanly.
TEST(DurableEngineTest, CheckpointCrashIsRetryableAfterReboot) {
  SsdDevice inner(sim::testbed_ssd_profile());
  FaultConfig faults;
  faults.seed = 9;
  FaultInjectingDevice dev(inner, faults);
  IoContext io(dev);
  DurabilityConfig dcfg = default_durability_config(dev.capacity_bytes());
  dcfg.wal.group_ops = 1;
  const auto make_inner = [&] {
    return kv::make_engine(kv::EngineKind::kBTree, dev, io, small_config());
  };
  auto eng = std::make_unique<DurableEngine>(make_inner(), dev, io, dcfg);
  for (uint64_t i = 0; i < 60; ++i) eng->put(key_of(i), value_of(i));
  const uint64_t live_digest = harness::state_digest(*eng);

  dev.crash_after(2);  // dies a few IOs into the checkpoint
  const Status failed = eng->checkpoint();
  ASSERT_FALSE(failed.ok());
  dev.reboot();

  ASSERT_TRUE(eng->checkpoint().ok());
  EXPECT_EQ(eng->log().durable_bytes(), 0u);
  EXPECT_EQ(harness::state_digest(*eng), live_digest);

  // And the device image after the retried checkpoint is recoverable.
  eng->abandon();
  eng.reset();
  StatusOr<std::unique_ptr<DurableEngine>> recovered =
      DurableEngine::recover(make_inner, dev, io, dcfg, nullptr);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->durable_mutations(), 60u);
  EXPECT_EQ(harness::state_digest(**recovered), live_digest);
}

TEST(DurableEngineTest, ExportsWalAndRecoveryMetrics) {
  SsdDevice dev(sim::testbed_ssd_profile());
  IoContext io(dev);
  DurabilityConfig dcfg = default_durability_config(dev.capacity_bytes());
  dcfg.wal.group_ops = 1;
  const auto make_inner = [&] {
    return kv::make_engine(kv::EngineKind::kBTree, dev, io, small_config());
  };
  auto eng = std::make_unique<DurableEngine>(make_inner(), dev, io, dcfg);
  for (uint64_t i = 0; i < 20; ++i) eng->put(key_of(i), value_of(i));
  {
    stats::MetricsRegistry reg;
    eng->export_metrics(reg, "e.");
    EXPECT_EQ(reg.counter("e.wal.records_appended"), 20u);
    EXPECT_EQ(reg.counter("e.wal.commits"), 20u);
    EXPECT_EQ(reg.counter("e.recovery.runs"), 0u);
    EXPECT_TRUE(reg.has_counter("e.snapshot.writes"));
    // The inner engine's metrics still land under the same prefix.
    EXPECT_TRUE(reg.has_counter("e.puts"));
  }
  eng->abandon();
  eng.reset();
  StatusOr<std::unique_ptr<DurableEngine>> recovered =
      DurableEngine::recover(make_inner, dev, io, dcfg, nullptr);
  ASSERT_TRUE(recovered.ok());
  stats::MetricsRegistry reg;
  (*recovered)->export_metrics(reg, "e.");
  EXPECT_EQ(reg.counter("e.recovery.runs"), 1u);
  EXPECT_EQ(reg.counter("e.recovery.replayed_records"), 20u);
  EXPECT_EQ(reg.counter("e.recovery.durable_lsn"), 20u);
}

}  // namespace
}  // namespace damkit::wal
