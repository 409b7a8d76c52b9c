// WAL framing and replay edge cases: empty log, group-commit batching,
// exactly-block-aligned tails, torn final records, CRC-corrupt mid-log
// records, stale pre-truncation frames, and torn tail-block rewrites under
// a deterministic device crash. Replay must always accept a strict prefix
// of what was appended and say so loudly (wal.torn_tail / stale_records).
#include "wal/wal.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

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

constexpr uint64_t kBlock = 4096;
// Serialized record framing: magic4 + lsn8 + type1 + klen4 + vlen4 + check8.
constexpr uint64_t kFrameOverhead = 29;

WalConfig small_wal(uint64_t region_bytes = 1 * kMiB, uint64_t group_ops = 1) {
  WalConfig cfg;
  cfg.base_offset = 0;
  cfg.region_bytes = region_bytes;
  cfg.block_bytes = kBlock;
  cfg.group_ops = group_ops;
  return cfg;
}

using Record = WriteAheadLog::Record;

Record make_record(uint64_t lsn, size_t value_bytes = 10) {
  Record r;
  r.lsn = lsn;
  r.type = static_cast<WriteAheadLog::RecordType>(1 + lsn % 3);
  r.key = "key-" + std::to_string(lsn);
  r.value = std::string(value_bytes, static_cast<char>('a' + lsn % 26));
  return r;
}

void append_all(WriteAheadLog& log, const std::vector<Record>& records) {
  for (const Record& r : records) {
    ASSERT_TRUE(log.append(r.type, r.key, r.value, r.lsn).ok());
  }
}

void expect_replayed(const std::vector<Record>& got,
                     const std::vector<Record>& want, size_t count) {
  ASSERT_EQ(got.size(), count);
  for (size_t i = 0; i < count; ++i) {
    EXPECT_EQ(got[i].lsn, want[i].lsn) << i;
    EXPECT_EQ(static_cast<int>(got[i].type), static_cast<int>(want[i].type))
        << i;
    EXPECT_EQ(got[i].key, want[i].key) << i;
    EXPECT_EQ(got[i].value, want[i].value) << i;
  }
}

TEST(WalTest, EmptyRegionRecoversClean) {
  SsdDevice dev(sim::testbed_ssd_profile());
  IoContext io(dev);
  WriteAheadLog log(dev, io, small_wal());
  // Never reset: the region is all zeros, which must read as a clean end.
  StatusOr<WriteAheadLog::ReplayResult> r = log.recover_scan(1);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->records.empty());
  EXPECT_FALSE(r->torn_tail);
  EXPECT_EQ(r->stale_records, 0u);
  EXPECT_EQ(log.next_lsn(), 1u);
  EXPECT_EQ(log.durable_bytes(), 0u);
}

TEST(WalTest, EmptyAfterResetRecoversClean) {
  SsdDevice dev(sim::testbed_ssd_profile());
  IoContext io(dev);
  WriteAheadLog log(dev, io, small_wal());
  ASSERT_TRUE(log.reset(7).ok());
  StatusOr<WriteAheadLog::ReplayResult> r = log.recover_scan(7);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->records.empty());
  EXPECT_FALSE(r->torn_tail);
  EXPECT_EQ(log.next_lsn(), 7u);
}

TEST(WalTest, AppendCommitReplayRoundTrip) {
  SsdDevice dev(sim::testbed_ssd_profile());
  IoContext io(dev);
  WriteAheadLog log(dev, io, small_wal());
  ASSERT_TRUE(log.reset(1).ok());
  std::vector<Record> records;
  for (uint64_t lsn = 1; lsn <= 10; ++lsn) records.push_back(make_record(lsn));
  append_all(log, records);
  ASSERT_TRUE(log.commit().ok());

  WriteAheadLog reader(dev, io, small_wal());
  StatusOr<WriteAheadLog::ReplayResult> r = reader.recover_scan(1);
  ASSERT_TRUE(r.ok());
  expect_replayed(r->records, records, records.size());
  EXPECT_FALSE(r->torn_tail);
  EXPECT_EQ(reader.next_lsn(), 11u);
  // The reader is positioned for appends: the next record replays too.
  const Record next = make_record(11);
  ASSERT_TRUE(reader.append(next.type, next.key, next.value, 11).ok());
  ASSERT_TRUE(reader.commit().ok());
  WriteAheadLog reader2(dev, io, small_wal());
  StatusOr<WriteAheadLog::ReplayResult> r2 = reader2.recover_scan(1);
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2->records.size(), 11u);
  EXPECT_EQ(r2->records.back().key, next.key);
}

TEST(WalTest, GroupCommitBatchesRecords) {
  SsdDevice dev(sim::testbed_ssd_profile());
  IoContext io(dev);
  WriteAheadLog log(dev, io, small_wal(1 * kMiB, /*group_ops=*/4));
  ASSERT_TRUE(log.reset(1).ok());
  for (uint64_t lsn = 1; lsn <= 3; ++lsn) {
    const Record r = make_record(lsn);
    ASSERT_TRUE(log.append(r.type, r.key, r.value, lsn).ok());
  }
  // Three buffered records, nothing durable yet.
  EXPECT_EQ(log.buffered_records(), 3u);
  EXPECT_EQ(log.durable_bytes(), 0u);
  const Record r4 = make_record(4);
  ASSERT_TRUE(log.append(r4.type, r4.key, r4.value, 4).ok());
  // The fourth append crossed group_ops: one commit, empty buffer.
  EXPECT_EQ(log.buffered_records(), 0u);
  EXPECT_GT(log.durable_bytes(), 0u);
  stats::MetricsRegistry reg;
  log.export_metrics(reg, "w.");
  EXPECT_EQ(reg.counter("w.wal.commits"), 1u);
  EXPECT_EQ(reg.counter("w.wal.records_appended"), 4u);
}

TEST(WalTest, ExactlyBlockAlignedTailRoundTrips) {
  SsdDevice dev(sim::testbed_ssd_profile());
  IoContext io(dev);
  WriteAheadLog log(dev, io, small_wal());
  ASSERT_TRUE(log.reset(1).ok());
  // One record framed to exactly one block: content ends on the boundary,
  // which forces the fence-block rule (zero padding < header size).
  Record aligned;
  aligned.lsn = 1;
  aligned.type = WriteAheadLog::RecordType::kPut;
  aligned.key = std::string(16, 'k');
  aligned.value = std::string(kBlock - kFrameOverhead - 16, 'v');
  ASSERT_TRUE(log.append(aligned.type, aligned.key, aligned.value, 1).ok());
  ASSERT_TRUE(log.commit().ok());
  EXPECT_EQ(log.durable_bytes(), kBlock);

  const Record next = make_record(2);
  ASSERT_TRUE(log.append(next.type, next.key, next.value, 2).ok());
  ASSERT_TRUE(log.commit().ok());

  WriteAheadLog reader(dev, io, small_wal());
  StatusOr<WriteAheadLog::ReplayResult> r = reader.recover_scan(1);
  ASSERT_TRUE(r.ok());
  expect_replayed(r->records, {aligned, next}, 2);
  EXPECT_FALSE(r->torn_tail);
}

TEST(WalTest, TornFinalRecordYieldsStrictPrefix) {
  SsdDevice dev(sim::testbed_ssd_profile());
  IoContext io(dev);
  WriteAheadLog log(dev, io, small_wal());
  ASSERT_TRUE(log.reset(1).ok());
  std::vector<Record> records;
  for (uint64_t lsn = 1; lsn <= 3; ++lsn) records.push_back(make_record(lsn));
  append_all(log, records);
  ASSERT_TRUE(log.commit().ok());

  // Flip one byte inside the LAST record's value, past its header.
  uint64_t third_at = 0;
  for (int i = 0; i < 2; ++i) {
    third_at +=
        kFrameOverhead + records[i].key.size() + records[i].value.size();
  }
  const uint64_t victim = third_at + kFrameOverhead + 2;
  std::vector<uint8_t> byte(1);
  dev.read_bytes(victim, byte);
  byte[0] ^= 0xFF;
  dev.write_bytes(victim, byte);

  WriteAheadLog reader(dev, io, small_wal());
  StatusOr<WriteAheadLog::ReplayResult> r = reader.recover_scan(1);
  ASSERT_TRUE(r.ok());
  expect_replayed(r->records, records, 2);  // strict prefix: 1, 2 only
  EXPECT_TRUE(r->torn_tail);
  EXPECT_EQ(reader.next_lsn(), 3u);
  stats::MetricsRegistry reg;
  reader.export_metrics(reg, "w.");
  EXPECT_EQ(reg.counter("w.wal.torn_tail"), 1u);

  // The scan sealed the frontier: a second recovery sees the same prefix,
  // now with a clean end.
  WriteAheadLog reader2(dev, io, small_wal());
  StatusOr<WriteAheadLog::ReplayResult> r2 = reader2.recover_scan(1);
  ASSERT_TRUE(r2.ok());
  expect_replayed(r2->records, records, 2);
  EXPECT_FALSE(r2->torn_tail);
}

TEST(WalTest, CrcCorruptMidLogStopsAtLastValidPrefix) {
  SsdDevice dev(sim::testbed_ssd_profile());
  IoContext io(dev);
  WriteAheadLog log(dev, io, small_wal());
  ASSERT_TRUE(log.reset(1).ok());
  std::vector<Record> records;
  for (uint64_t lsn = 1; lsn <= 5; ++lsn) records.push_back(make_record(lsn));
  append_all(log, records);
  ASSERT_TRUE(log.commit().ok());

  // Corrupt record 2 of 5: replay must stop BEFORE it — records 3..5 are
  // unreachable even though their frames are intact (no holes allowed).
  const uint64_t second_at =
      kFrameOverhead + records[0].key.size() + records[0].value.size();
  const uint64_t victim = second_at + kFrameOverhead + 1;
  std::vector<uint8_t> byte(1);
  dev.read_bytes(victim, byte);
  byte[0] ^= 0x01;
  dev.write_bytes(victim, byte);

  WriteAheadLog reader(dev, io, small_wal());
  StatusOr<WriteAheadLog::ReplayResult> r = reader.recover_scan(1);
  ASSERT_TRUE(r.ok());
  expect_replayed(r->records, records, 1);
  EXPECT_TRUE(r->torn_tail);
  EXPECT_EQ(reader.next_lsn(), 2u);
}

// Every byte of a record is covered: a one-bit flip anywhere in the
// header, key, value, the partial last word the check covers, or the check
// itself stops replay before that record.
TEST(WalTest, EveryByteOfARecordIsChecked) {
  std::vector<Record> records;
  for (uint64_t lsn = 1; lsn <= 3; ++lsn) {
    records.push_back(make_record(lsn, /*value_bytes=*/13));
  }
  const uint64_t victim_at =
      kFrameOverhead + records[0].key.size() + records[0].value.size();
  const uint64_t victim_bytes =
      kFrameOverhead + records[1].key.size() + records[1].value.size();
  ASSERT_NE((victim_bytes - 8) % 8, 0u) << "no partial last word";

  for (uint64_t i = 0; i < victim_bytes; ++i) {
    SsdDevice dev(sim::testbed_ssd_profile());
    IoContext io(dev);
    WriteAheadLog log(dev, io, small_wal());
    ASSERT_TRUE(log.reset(1).ok());
    append_all(log, records);
    ASSERT_TRUE(log.commit().ok());
    std::vector<uint8_t> byte(1);
    dev.read_bytes(victim_at + i, byte);
    byte[0] ^= static_cast<uint8_t>(1u << (i % 8));
    dev.write_bytes(victim_at + i, byte);

    WriteAheadLog reader(dev, io, small_wal());
    StatusOr<WriteAheadLog::ReplayResult> r = reader.recover_scan(1);
    ASSERT_TRUE(r.ok()) << "byte " << i;
    expect_replayed(r->records, records, 1);
    EXPECT_TRUE(r->torn_tail) << "byte " << i;
  }
}

TEST(WalTest, StaleFramesAfterLostTruncateAreRejected) {
  SsdDevice dev(sim::testbed_ssd_profile());
  IoContext io(dev);
  WriteAheadLog log(dev, io, small_wal());
  ASSERT_TRUE(log.reset(1).ok());
  std::vector<Record> records;
  for (uint64_t lsn = 1; lsn <= 3; ++lsn) records.push_back(make_record(lsn));
  append_all(log, records);
  ASSERT_TRUE(log.commit().ok());

  // A checkpoint covering LSNs 1..5 landed but the crash ate the truncate:
  // the region still opens with a valid frame carrying LSN 1 < 6. That
  // frame is stale, not state — replay must reject it.
  WriteAheadLog reader(dev, io, small_wal());
  StatusOr<WriteAheadLog::ReplayResult> r = reader.recover_scan(6);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->records.empty());
  EXPECT_FALSE(r->torn_tail);
  EXPECT_EQ(r->stale_records, 1u);
  EXPECT_EQ(reader.next_lsn(), 6u);
  stats::MetricsRegistry reg;
  reader.export_metrics(reg, "w.");
  EXPECT_EQ(reg.counter("w.wal.stale_records"), 1u);

  // The stale frontier was sealed: scanning again finds a clean empty log.
  WriteAheadLog reader2(dev, io, small_wal());
  StatusOr<WriteAheadLog::ReplayResult> r2 = reader2.recover_scan(6);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->records.empty());
  EXPECT_FALSE(r2->torn_tail);
  EXPECT_EQ(r2->stale_records, 0u);
}

TEST(WalTest, TruncateThenReuseReplaysOnlyNewRecords) {
  SsdDevice dev(sim::testbed_ssd_profile());
  IoContext io(dev);
  WriteAheadLog log(dev, io, small_wal());
  ASSERT_TRUE(log.reset(1).ok());
  std::vector<Record> old_records;
  for (uint64_t lsn = 1; lsn <= 4; ++lsn) {
    old_records.push_back(make_record(lsn, /*value_bytes=*/500));
  }
  append_all(log, old_records);
  ASSERT_TRUE(log.commit().ok());
  ASSERT_TRUE(log.truncate(5).ok());
  EXPECT_EQ(log.durable_bytes(), 0u);
  const Record fresh = make_record(5);
  ASSERT_TRUE(log.append(fresh.type, fresh.key, fresh.value, 5).ok());
  ASSERT_TRUE(log.commit().ok());

  WriteAheadLog reader(dev, io, small_wal());
  StatusOr<WriteAheadLog::ReplayResult> r = reader.recover_scan(5);
  ASSERT_TRUE(r.ok());
  expect_replayed(r->records, {fresh}, 1);
  EXPECT_FALSE(r->torn_tail);
  EXPECT_EQ(r->stale_records, 0u);
}

TEST(WalTest, RegionFullSurfacesResourceExhausted) {
  SsdDevice dev(sim::testbed_ssd_profile());
  IoContext io(dev);
  WriteAheadLog log(dev, io, small_wal(/*region_bytes=*/4 * kBlock));
  ASSERT_TRUE(log.reset(1).ok());
  Status last;
  uint64_t lsn = 1;
  while (last.ok() && lsn < 100) {
    const Record r = make_record(lsn, /*value_bytes=*/900);
    last = log.append(r.type, r.key, r.value, lsn);
    ++lsn;
  }
  ASSERT_FALSE(last.ok());
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(last.message().find("checkpoint"), std::string::npos)
      << last.message();
  // The failed group stays buffered: nothing was silently dropped.
  EXPECT_GT(log.buffered_records(), 0u);
}

TEST(WalTest, RecordLargerThanTheRegionIsRejected) {
  // A record the region cannot hold is an argument error, not an abort:
  // it takes no LSN and buffers no byte, and the log carries on.
  SsdDevice dev(sim::testbed_ssd_profile());
  IoContext io(dev);
  const WalConfig cfg = small_wal(/*region_bytes=*/4 * kBlock, /*group_ops=*/8);
  WriteAheadLog log(dev, io, cfg);
  ASSERT_TRUE(log.reset(1).ok());
  const Record first = make_record(1);
  ASSERT_TRUE(log.append(first.type, first.key, first.value, 1).ok());
  const uint64_t buffered = log.buffered_bytes();

  const std::string huge(2 * kBlock, 'h');
  const Status s = log.append(WriteAheadLog::RecordType::kPut, "k", huge, 2);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("WAL region"), std::string::npos) << s.message();
  EXPECT_EQ(log.next_lsn(), 2u);
  EXPECT_EQ(log.buffered_records(), 1u);
  EXPECT_EQ(log.buffered_bytes(), buffered);

  const Record second = make_record(2);
  ASSERT_TRUE(log.append(second.type, second.key, second.value, 2).ok());
  ASSERT_TRUE(log.commit().ok());
  WriteAheadLog reader(dev, io, cfg);
  StatusOr<WriteAheadLog::ReplayResult> replay = reader.recover_scan(1);
  ASSERT_TRUE(replay.ok());
  expect_replayed(replay->records, {first, second}, 2);
}

TEST(WalTest, CommitFailureKeepsBufferForRetry) {
  SsdDevice inner(sim::testbed_ssd_profile());
  FaultConfig faults;
  faults.seed = 11;
  FaultInjectingDevice dev(inner, faults);
  IoContext io(dev);
  WalConfig cfg = small_wal();
  WriteAheadLog log(dev, io, cfg);
  ASSERT_TRUE(log.reset(1).ok());

  dev.crash_after(0);  // the very next checked IO dies
  const Record r1 = make_record(1);
  const Status s = log.append(r1.type, r1.key, r1.value, 1);  // auto-commits
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(log.buffered_records(), 1u);
  EXPECT_EQ(log.durable_bytes(), 0u);

  dev.reboot();
  ASSERT_TRUE(log.commit().ok());
  EXPECT_EQ(log.buffered_records(), 0u);
  WriteAheadLog reader(dev, io, cfg);
  StatusOr<WriteAheadLog::ReplayResult> replay = reader.recover_scan(1);
  ASSERT_TRUE(replay.ok());
  expect_replayed(replay->records, {r1}, 1);
}

// After a crash mid-commit, each later append first retries the stuck
// group, once; when that fails it takes no LSN and buffers nothing, so the
// IO a dead device draws stays linear in the appends. After reboot one
// commit lands the stuck group.
TEST(WalTest, StuckGroupIsRetriedBeforeEachAppend) {
  SsdDevice inner(sim::testbed_ssd_profile());
  FaultConfig faults;
  faults.seed = 11;
  FaultInjectingDevice dev(inner, faults);
  IoContext io(dev);
  const WalConfig cfg = small_wal(1 * kMiB, /*group_ops=*/4);
  WriteAheadLog log(dev, io, cfg);
  ASSERT_TRUE(log.reset(1).ok());
  std::vector<Record> stuck = {make_record(1), make_record(2), make_record(3)};
  append_all(log, stuck);
  dev.crash_after(0);
  stuck.push_back(make_record(4));
  ASSERT_FALSE(log.append(stuck[3].type, stuck[3].key, stuck[3].value, 4).ok());
  ASSERT_EQ(log.buffered_records(), 4u);
  const uint64_t stuck_bytes = log.buffered_bytes();

  // The stuck group fits one block, so one commit attempt is one write
  // per try of the context's (default) retry policy.
  const uint64_t attempt_ios = blockdev::RetryPolicy{}.max_attempts;
  const Record next = make_record(5);
  for (int i = 0; i < 10; ++i) {
    const uint64_t before = dev.checked_ios();
    EXPECT_FALSE(log.append(next.type, next.key, next.value, 5).ok());
    EXPECT_EQ(dev.checked_ios() - before, attempt_ios) << "append " << i;
    EXPECT_EQ(log.next_lsn(), 5u);
    EXPECT_EQ(log.buffered_records(), 4u);
    EXPECT_EQ(log.buffered_bytes(), stuck_bytes);
  }

  dev.reboot();
  const uint64_t before = dev.checked_ios();
  ASSERT_TRUE(log.commit().ok());
  EXPECT_EQ(dev.checked_ios() - before, 1u);
  WriteAheadLog reader(dev, io, cfg);
  StatusOr<WriteAheadLog::ReplayResult> replay = reader.recover_scan(1);
  ASSERT_TRUE(replay.ok());
  expect_replayed(replay->records, stuck, 4);
}

// A crash tearing the tail-block rewrite may only ever lose the NEW
// records: the durable prefix bytes are bit-identical in the new image.
TEST(WalTest, TornTailRewritePreservesDurablePrefix) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SsdDevice inner(sim::testbed_ssd_profile());
    FaultConfig faults;
    faults.seed = seed;
    FaultInjectingDevice dev(inner, faults);
    IoContext io(dev);
    WriteAheadLog log(dev, io, small_wal());
    ASSERT_TRUE(log.reset(1).ok());
    const Record r1 = make_record(1);
    ASSERT_TRUE(log.append(r1.type, r1.key, r1.value, 1).ok());  // committed

    dev.crash_after(0);
    const Record r2 = make_record(2);
    ASSERT_FALSE(log.append(r2.type, r2.key, r2.value, 2).ok());
    dev.reboot();

    WriteAheadLog reader(dev, io, small_wal());
    StatusOr<WriteAheadLog::ReplayResult> r = reader.recover_scan(1);
    ASSERT_TRUE(r.ok()) << "seed " << seed;
    // Replay holds a prefix of [r1, r2] that always includes r1.
    const std::vector<Record> want = {r1, r2};
    ASSERT_GE(r->records.size(), 1u) << "seed " << seed;
    ASSERT_LE(r->records.size(), 2u) << "seed " << seed;
    expect_replayed(r->records, want, r->records.size());
  }
}

}  // namespace
}  // namespace damkit::wal
