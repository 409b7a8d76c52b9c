#include "sim/ssd.h"

#include <gtest/gtest.h>

#include "sim/closed_loop.h"
#include "util/bytes.h"

namespace damkit::sim {
namespace {

SsdConfig small_config() {
  SsdConfig cfg;
  cfg.name = "test-ssd";
  cfg.capacity_bytes = 4ULL * kGiB;
  cfg.channels = 2;
  cfg.dies_per_channel = 2;
  cfg.page_bytes = 4096;
  cfg.stripe_bytes = 64 * kKiB;
  cfg.page_read_s = 50e-6;
  cfg.page_write_s = 200e-6;
  cfg.bus_s_per_page = 2e-6;
  cfg.command_overhead_s = 10e-6;
  return cfg;
}

TEST(SsdTest, StripeMappingRoundRobinByStripe) {
  SsdDevice dev(small_config());
  EXPECT_EQ(dev.die_of(0), 0);
  EXPECT_EQ(dev.die_of(64 * kKiB), 1);
  EXPECT_EQ(dev.die_of(2 * 64 * kKiB), 2);
  EXPECT_EQ(dev.die_of(3 * 64 * kKiB), 3);
  EXPECT_EQ(dev.die_of(4 * 64 * kKiB), 0);  // wraps at total dies
  EXPECT_EQ(dev.die_of(64 * kKiB - 1), 0);  // within a stripe, same die
}

TEST(SsdTest, ReadLatencyMatchesPageArithmetic) {
  const SsdConfig cfg = small_config();
  SsdDevice dev(cfg);
  const IoCompletion c = dev.submit({IoKind::kRead, 0, 64 * kKiB}, 0);
  // 16 pages serially on one die + final bus transfer + overhead.
  const double expected =
      cfg.command_overhead_s + 16 * cfg.page_read_s + cfg.bus_s_per_page;
  EXPECT_NEAR(to_seconds(c.finish), expected, expected * 0.05);
}

TEST(SsdTest, WritesSlowerThanReads) {
  SsdDevice dev(small_config());
  const IoCompletion r = dev.submit({IoKind::kRead, 0, 64 * kKiB}, 0);
  SsdDevice dev2(small_config());
  const IoCompletion w = dev2.submit({IoKind::kWrite, 0, 64 * kKiB}, 0);
  EXPECT_GT(w.finish - w.start, r.finish - r.start);
}

TEST(SsdTest, DisjointDiesOverlap) {
  SsdDevice dev(small_config());
  // Two IOs on different dies at the same time: both finish in ~1 IO time.
  const IoCompletion a = dev.submit({IoKind::kRead, 0, 64 * kKiB}, 0);
  const IoCompletion b =
      dev.submit({IoKind::kRead, 64 * kKiB, 64 * kKiB}, 0);
  const SimTime solo = a.finish;
  EXPECT_LT(b.finish, solo + solo / 4);  // near-perfect overlap
}

TEST(SsdTest, SameDieConflictsSerialize) {
  SsdDevice dev(small_config());
  const IoCompletion a = dev.submit({IoKind::kRead, 0, 64 * kKiB}, 0);
  // Same stripe → same die → must wait for the first to clear the die.
  const IoCompletion b =
      dev.submit({IoKind::kRead, 4 * 64 * kKiB, 64 * kKiB}, 0);
  EXPECT_GT(b.finish, a.finish + (a.finish - a.start) / 2);
}

TEST(SsdTest, LargeIoUsesInternalParallelism) {
  const SsdConfig cfg = small_config();
  SsdDevice dev(cfg);
  // 256 KiB spans 4 stripes = all 4 dies in parallel.
  const IoCompletion big = dev.submit({IoKind::kRead, 0, 256 * kKiB}, 0);
  SsdDevice dev2(cfg);
  const IoCompletion one = dev2.submit({IoKind::kRead, 0, 64 * kKiB}, 0);
  const double speedup = to_seconds(one.finish - one.start) * 4.0 /
                         to_seconds(big.finish - big.start);
  EXPECT_GT(speedup, 3.0);  // near 4x from striping
}

TEST(SsdTest, SaturatedBandwidthFormula) {
  const SsdConfig cfg = small_config();
  // 4 dies × 4096 B / 50 us = 327.68 MB/s; bus: 2 ch × 4096/2us = 4 GB/s.
  EXPECT_NEAR(cfg.saturated_read_bps(), 4 * 4096 / 50e-6, 1.0);
  EXPECT_GT(cfg.qd1_read_bps(64 * kKiB), 0.0);
  EXPECT_LT(cfg.qd1_read_bps(64 * kKiB), cfg.saturated_read_bps());
}

TEST(SsdTest, Qd1ClosedFormMatchesSimulatedBandwidth) {
  // The acceptance bar for the qd1_read_bps fix: the closed form must
  // agree with a simulated single-client closed loop within 5% across the
  // whole io_bytes range, for both striping modes. The old form priced
  // only the first stripe's pages — multi-stripe IOs made it wildly
  // optimistic under round-robin and blind to die collisions when hashed.
  for (const bool hashed : {false, true}) {
    SsdConfig cfg = small_config();
    cfg.hashed_striping = hashed;
    for (const uint64_t io_bytes :
         {4 * kKiB, 16 * kKiB, 64 * kKiB, 256 * kKiB, 1024 * kKiB}) {
      SsdDevice dev(cfg);
      ClosedLoopConfig loop;
      loop.clients = 1;
      loop.ios_per_client = 400;
      loop.io_bytes = io_bytes;
      loop.seed = 7;
      const ClosedLoopResult r = run_closed_loop(dev, loop);
      const double closed_form = cfg.qd1_read_bps(io_bytes);
      EXPECT_NEAR(r.throughput_bps(), closed_form, closed_form * 0.05)
          << (hashed ? "hashed" : "round-robin") << " io_bytes=" << io_bytes;
    }
  }
}

TEST(SsdTest, DieWaitCountsOnlyCrossRequestQueueing) {
  SsdDevice dev(small_config());
  // Two single-stripe reads on the same die, both submitted at t = 0: the
  // second queues behind the first — genuine cross-request contention.
  dev.submit({IoKind::kRead, 0, 64 * kKiB}, 0);
  dev.submit({IoKind::kRead, 4 * 64 * kKiB, 64 * kKiB}, 0);
  EXPECT_GT(dev.die_wait_seconds(), 0.0);
  EXPECT_EQ(dev.intra_io_wait_seconds(), 0.0);
}

TEST(SsdTest, IntraIoSerializationIsNotDieWait) {
  SsdConfig cfg = small_config();
  cfg.channels = 1;
  cfg.dies_per_channel = 1;  // every stripe lands on the single die
  SsdDevice dev(cfg);
  // One two-stripe read on an idle device: the second stripe queues
  // behind the first, but that backlog is the request's own fan-out lost
  // to a die collision — self-serialization, not contention. The old
  // accounting charged it to die_wait, inflating the contention signal
  // for every multi-stripe IO.
  dev.submit({IoKind::kRead, 0, 2 * 64 * kKiB}, 0);
  EXPECT_EQ(dev.die_wait_seconds(), 0.0);
  EXPECT_GT(dev.intra_io_wait_seconds(), 0.0);
}

TEST(SsdTest, StatsAccounting) {
  SsdDevice dev(small_config());
  dev.submit({IoKind::kRead, 0, 4096}, 0);
  dev.submit({IoKind::kWrite, 0, 8192}, 0);
  EXPECT_EQ(dev.stats().reads, 1u);
  EXPECT_EQ(dev.stats().writes, 1u);
  EXPECT_EQ(dev.stats().bytes_read, 4096u);
  EXPECT_EQ(dev.stats().bytes_written, 8192u);
}

TEST(SsdTest, HashedStripingSpreadsStripes) {
  SsdConfig cfg = small_config();
  cfg.hashed_striping = true;
  cfg.channels = 4;
  cfg.dies_per_channel = 8;
  SsdDevice dev(cfg);
  // Consecutive stripes land on effectively random dies: all 32 dies hit
  // within a few hundred stripes, and no die takes a huge share.
  std::vector<int> counts(32, 0);
  for (uint64_t s = 0; s < 1024; ++s) {
    ++counts[static_cast<size_t>(dev.die_of(s * cfg.stripe_bytes))];
  }
  for (int c : counts) {
    EXPECT_GT(c, 0);
    EXPECT_LT(c, 1024 / 32 * 3);
  }
  // Mapping is stable per offset.
  EXPECT_EQ(dev.die_of(12345), dev.die_of(12345));
}

TEST(SsdTest, LinkStageSerializesPayloads) {
  SsdConfig cfg = small_config();
  cfg.channels = 4;
  cfg.dies_per_channel = 8;
  cfg.link_bps = 500e6;
  SsdDevice dev(cfg);
  // Two IOs on disjoint dies still queue on the shared link.
  const IoCompletion a = dev.submit({IoKind::kRead, 0, 64 * kKiB}, 0);
  const IoCompletion b =
      dev.submit({IoKind::kRead, 64 * kKiB, 64 * kKiB}, 0);
  const SimTime link_occupancy = from_seconds(64.0 * 1024 / 500e6);
  EXPECT_GE(b.finish, a.finish + link_occupancy);
  // And the configured link bounds the saturated bandwidth.
  EXPECT_LE(cfg.saturated_read_bps(), 500e6 + 1.0);
}

TEST(SsdTest, LinkDisabledByDefault) {
  const SsdConfig cfg = small_config();
  EXPECT_EQ(cfg.link_bps, 0.0);
  // With the link off, disjoint-die IOs overlap nearly perfectly (the
  // DisjointDiesOverlap test above); just confirm config plumbing here.
  SsdDevice dev(cfg);
  const IoCompletion a = dev.submit({IoKind::kRead, 0, 64 * kKiB}, 0);
  const IoCompletion b =
      dev.submit({IoKind::kRead, 64 * kKiB, 64 * kKiB}, 0);
  EXPECT_LT(b.finish, a.finish + (a.finish - a.start) / 2);
}

TEST(SsdTest, TrimDropsPayloadWithoutTiming) {
  SsdDevice dev(small_config());
  std::vector<uint8_t> data(64 * kKiB, 0x7e);
  IoCompletion c;
  ASSERT_TRUE(dev.write_checked(0, data, 0, &c).ok());
  EXPECT_GT(dev.resident_host_bytes(), 0u);
  dev.trim(0, 64 * kKiB);
  EXPECT_EQ(dev.resident_host_bytes(), 0u);
  std::vector<uint8_t> back(16);
  dev.read_bytes(0, back);
  for (uint8_t v : back) EXPECT_EQ(v, 0);
}

TEST(SsdDeathTest, BoundsChecked) {
  SsdDevice dev(small_config());
  EXPECT_DEATH(dev.submit({IoKind::kRead, 4ULL * kGiB, 4096}, 0),
               "past device end");
}

}  // namespace
}  // namespace damkit::sim
