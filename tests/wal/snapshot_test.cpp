// Double-slot snapshot atomicity: the header block is the commit point.
// A crash mid-payload leaves the slot unverifiable and load() falls back
// to the other slot; a crash on the header itself is all-or-nothing.
#include "wal/snapshot.h"

#include <gtest/gtest.h>

#include <cstdint>
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

SnapshotConfig small_snapshot() {
  SnapshotConfig cfg;
  cfg.base_offset = 0;
  cfg.slot_bytes = 1 * kMiB;
  cfg.block_bytes = 4096;
  return cfg;
}

std::vector<uint8_t> make_payload(uint64_t seq, size_t bytes) {
  std::vector<uint8_t> payload(bytes);
  for (size_t i = 0; i < bytes; ++i) {
    payload[i] = static_cast<uint8_t>((seq * 131 + i) & 0xFF);
  }
  return payload;
}

SnapshotMeta make_meta(uint64_t seq, const std::vector<uint8_t>& payload) {
  SnapshotMeta meta;
  meta.seq = seq;
  meta.last_lsn = seq * 100;
  meta.entries = seq * 10;
  meta.payload_bytes = payload.size();
  return meta;
}

void flip_bit(sim::Device& dev, uint64_t offset, int bit) {
  std::vector<uint8_t> byte(1);
  dev.read_bytes(offset, byte);
  byte[0] ^= static_cast<uint8_t>(1u << bit);
  dev.write_bytes(offset, byte);
}

// Flips one bit of each byte in [first, first + count) in turn, loads, and
// expects the slot rejected and counted after reading at most `max_read`
// bytes; the flip is undone before the next byte.
void expect_every_byte_checked(sim::Device& dev, SnapshotStore& store,
                               uint64_t first, uint64_t count,
                               uint64_t max_read) {
  for (uint64_t i = 0; i < count; ++i) {
    const int bit = static_cast<int>(i % 8);
    flip_bit(dev, first + i, bit);
    SnapshotMeta got;
    std::vector<uint8_t> got_payload;
    const uint64_t read_before = dev.stats().bytes_read;
    StatusOr<bool> r = store.load(&got, &got_payload);
    ASSERT_TRUE(r.ok()) << "byte " << i;
    EXPECT_FALSE(*r) << "byte " << i;
    EXPECT_LE(dev.stats().bytes_read - read_before, max_read) << "byte " << i;
    stats::MetricsRegistry reg;
    store.export_metrics(reg, "s.");
    EXPECT_EQ(reg.counter("s.snapshot.invalid_slots"), i + 1) << "byte " << i;
    flip_bit(dev, first + i, bit);
  }
}

TEST(SnapshotTest, FreshStoreLoadsNothing) {
  SsdDevice dev(sim::testbed_ssd_profile());
  IoContext io(dev);
  SnapshotStore store(dev, io, small_snapshot());
  SnapshotMeta meta;
  std::vector<uint8_t> payload;
  StatusOr<bool> r = store.load(&meta, &payload);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
  EXPECT_TRUE(payload.empty());
}

TEST(SnapshotTest, RoundTripsMetaAndPayload) {
  SsdDevice dev(sim::testbed_ssd_profile());
  IoContext io(dev);
  SnapshotStore store(dev, io, small_snapshot());
  const std::vector<uint8_t> payload = make_payload(1, 10'000);
  ASSERT_TRUE(store.write(make_meta(1, payload), payload).ok());

  SnapshotMeta got;
  std::vector<uint8_t> got_payload;
  StatusOr<bool> r = store.load(&got, &got_payload);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(*r);
  EXPECT_EQ(got.seq, 1u);
  EXPECT_EQ(got.last_lsn, 100u);
  EXPECT_EQ(got.entries, 10u);
  EXPECT_EQ(got_payload, payload);
}

TEST(SnapshotTest, EmptyPayloadRoundTrips) {
  SsdDevice dev(sim::testbed_ssd_profile());
  IoContext io(dev);
  SnapshotStore store(dev, io, small_snapshot());
  const std::vector<uint8_t> empty;
  ASSERT_TRUE(store.write(make_meta(1, empty), empty).ok());
  SnapshotMeta got;
  std::vector<uint8_t> got_payload;
  StatusOr<bool> r = store.load(&got, &got_payload);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(*r);
  EXPECT_EQ(got.entries, 10u);
  EXPECT_TRUE(got_payload.empty());
}

TEST(SnapshotTest, AlternatingSlotsKeepNewest) {
  SsdDevice dev(sim::testbed_ssd_profile());
  IoContext io(dev);
  SnapshotStore store(dev, io, small_snapshot());
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    const std::vector<uint8_t> payload = make_payload(seq, 5'000 + seq);
    ASSERT_TRUE(store.write(make_meta(seq, payload), payload).ok());
    SnapshotMeta got;
    std::vector<uint8_t> got_payload;
    StatusOr<bool> r = store.load(&got, &got_payload);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(*r);
    EXPECT_EQ(got.seq, seq);
    EXPECT_EQ(got_payload, make_payload(seq, 5'000 + seq));
  }
}

TEST(SnapshotTest, OversizedPayloadIsRejected) {
  SsdDevice dev(sim::testbed_ssd_profile());
  IoContext io(dev);
  SnapshotStore store(dev, io, small_snapshot());
  const std::vector<uint8_t> payload = make_payload(1, 1 * kMiB);
  const Status s = store.write(make_meta(1, payload), payload);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
}

TEST(SnapshotTest, CrashMidPayloadFallsBackToOlderSlot) {
  SsdDevice inner(sim::testbed_ssd_profile());
  FaultConfig faults;
  faults.seed = 5;
  FaultInjectingDevice dev(inner, faults);
  IoContext io(dev);
  SnapshotStore store(dev, io, small_snapshot());
  const std::vector<uint8_t> old_payload = make_payload(1, 8'000);
  ASSERT_TRUE(store.write(make_meta(1, old_payload), old_payload).ok());

  // Seq 2 goes to the other slot; the device dies on its FIRST payload
  // write, so no header ever lands there.
  dev.crash_after(0);
  const std::vector<uint8_t> new_payload = make_payload(2, 8'000);
  ASSERT_FALSE(store.write(make_meta(2, new_payload), new_payload).ok());
  dev.reboot();

  SnapshotMeta got;
  std::vector<uint8_t> got_payload;
  StatusOr<bool> r = store.load(&got, &got_payload);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(*r);
  EXPECT_EQ(got.seq, 1u);
  EXPECT_EQ(got_payload, old_payload);
}

TEST(SnapshotTest, CrashOnHeaderWriteIsAllOrNothing) {
  // The header block is the commit point: tearing it mid-write must leave
  // the store in exactly one of two states — the old snapshot (torn header
  // fails verification) or the new one COMPLETE (the tear landed past the
  // 52 header bytes, and the payload was already durable). Never a mix.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SsdDevice inner(sim::testbed_ssd_profile());
    FaultConfig faults;
    faults.seed = seed;
    FaultInjectingDevice dev(inner, faults);
    IoContext io(dev);
    SnapshotStore store(dev, io, small_snapshot());
    const std::vector<uint8_t> old_payload = make_payload(1, 8'000);
    ASSERT_TRUE(store.write(make_meta(1, old_payload), old_payload).ok());

    // 8000 bytes pad to one 256 KiB chunk: IO 3 is seq 2's payload batch,
    // IO 4 its header — the commit point. Kill exactly that one.
    dev.crash_after(1);
    const std::vector<uint8_t> new_payload = make_payload(2, 8'000);
    ASSERT_FALSE(store.write(make_meta(2, new_payload), new_payload).ok());
    dev.reboot();

    SnapshotMeta got;
    std::vector<uint8_t> got_payload;
    StatusOr<bool> r = store.load(&got, &got_payload);
    ASSERT_TRUE(r.ok()) << "seed " << seed;
    ASSERT_TRUE(*r) << "seed " << seed;
    if (got.seq == 1) {
      EXPECT_EQ(got_payload, old_payload) << "seed " << seed;
    } else {
      EXPECT_EQ(got.seq, 2u) << "seed " << seed;
      EXPECT_EQ(got_payload, new_payload) << "seed " << seed;
    }
  }
}

TEST(SnapshotTest, PayloadCorruptionDemotesSlotLoudly) {
  SsdDevice dev(sim::testbed_ssd_profile());
  IoContext io(dev);
  SnapshotStore store(dev, io, small_snapshot());
  const std::vector<uint8_t> payload = make_payload(3, 6'000);
  ASSERT_TRUE(store.write(make_meta(3, payload), payload).ok());

  // Seq 3 lives in slot 1; flip one payload byte behind the header block.
  const uint64_t victim = 1 * kMiB + 4096 + 1234;
  std::vector<uint8_t> byte(1);
  dev.read_bytes(victim, byte);
  byte[0] ^= 0x80;
  dev.write_bytes(victim, byte);

  SnapshotMeta got;
  std::vector<uint8_t> got_payload;
  StatusOr<bool> r = store.load(&got, &got_payload);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
  stats::MetricsRegistry reg;
  store.export_metrics(reg, "s.");
  EXPECT_EQ(reg.counter("s.snapshot.invalid_slots"), 1u);
}

// Seq 3 lives in slot 1. Every byte the header check covers, and the check
// itself, demotes the slot when one bit flips, before any payload is read:
// the header check alone catches it, even in the payload check's bytes.
TEST(SnapshotTest, EveryHeaderByteIsChecked) {
  SsdDevice dev(sim::testbed_ssd_profile());
  IoContext io(dev);
  SnapshotStore store(dev, io, small_snapshot());
  const std::vector<uint8_t> payload = make_payload(3, 1'003);
  ASSERT_TRUE(store.write(make_meta(3, payload), payload).ok());
  // magic + seq + last_lsn + entries + payload_bytes + payload check,
  // then the header check.
  expect_every_byte_checked(dev, store, 1 * kMiB, 4 + 5 * 8 + 8,
                            /*max_read=*/2 * 4096);
}

TEST(SnapshotTest, EveryPayloadByteIsChecked) {
  SsdDevice dev(sim::testbed_ssd_profile());
  IoContext io(dev);
  SnapshotStore store(dev, io, small_snapshot());
  const std::vector<uint8_t> payload = make_payload(3, 1'003);
  ASSERT_NE(payload.size() % 8, 0u) << "no partial last word";
  ASSERT_TRUE(store.write(make_meta(3, payload), payload).ok());
  expect_every_byte_checked(dev, store, 1 * kMiB + 4096, payload.size(),
                            /*max_read=*/2 * 4096 + payload.size());

  // Every flip was undone: the slot loads again.
  SnapshotMeta got;
  std::vector<uint8_t> got_payload;
  StatusOr<bool> r = store.load(&got, &got_payload);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  EXPECT_EQ(got_payload, payload);
}

}  // namespace
}  // namespace damkit::wal
