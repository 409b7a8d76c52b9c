// Tests for the batched submission path (Device::submit_batch and
// Device::submit_batch_checked): a batch of one must be bit-identical
// to the serial path, an SSD batch must exploit die parallelism per the
// PDAM, and the nondecreasing-clock contract must abort loudly when
// violated.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "sim/device.h"
#include "sim/hdd.h"
#include "sim/ssd.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace damkit::sim {
namespace {

// A checked batch on a fault-free device: every request succeeds, and
// the clock advances to the batch's max completion.
std::vector<IoCompletion> submit_batch(IoContext& io,
                                       std::span<const IoRequest> reqs) {
  std::vector<IoCompletion> cs;
  std::vector<Status> per_io;
  EXPECT_TRUE(
      io.device().submit_batch_checked(reqs, io.now(), &cs, &per_io).ok());
  for (const IoCompletion& c : cs) io.advance_to(c.finish);
  return cs;
}

HddConfig hdd_config() {
  HddConfig cfg;
  cfg.name = "batch-test-hdd";
  cfg.capacity_bytes = 8ULL * kGiB;
  cfg.rpm = 7200;
  cfg.track_to_track_s = 0.001;
  cfg.full_stroke_s = 0.015;
  cfg.avg_bandwidth_bps = 150e6;
  cfg.track_bytes = kMiB;
  return cfg;
}

SsdConfig ssd_config(int channels, int dies_per_channel) {
  SsdConfig cfg;
  cfg.name = "batch-test-ssd";
  cfg.capacity_bytes = 4ULL * kGiB;
  cfg.channels = channels;
  cfg.dies_per_channel = dies_per_channel;
  cfg.page_bytes = 4096;
  cfg.stripe_bytes = 64 * kKiB;
  cfg.page_read_s = 50e-6;
  cfg.page_write_s = 200e-6;
  cfg.bus_s_per_page = 2e-6;
  cfg.command_overhead_s = 10e-6;
  return cfg;
}

TEST(BatchIoTest, HddBatchOfOneMatchesSerial) {
  const HddConfig cfg = hdd_config();
  HddDevice serial(cfg, 3);
  HddDevice batched(cfg, 3);  // same seed → same initial head position
  SimTime t = 0;
  Rng rng(9);
  for (int i = 0; i < 32; ++i) {
    const uint64_t off = rng.uniform(cfg.capacity_bytes / 4096) * 4096;
    const IoRequest req{IoKind::kRead, off, 4096};
    const IoCompletion a = serial.submit(req, t);
    const auto b = batched.submit_batch({&req, 1}, t);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(a.start, b[0].start);
    EXPECT_EQ(a.finish, b[0].finish);
    t = a.finish;
  }
}

TEST(BatchIoTest, SsdBatchOfOneMatchesSerial) {
  const SsdConfig cfg = ssd_config(2, 2);
  SsdDevice serial(cfg);
  SsdDevice batched(cfg);
  SimTime t = 0;
  Rng rng(11);
  for (int i = 0; i < 32; ++i) {
    const uint64_t off = rng.uniform(cfg.capacity_bytes / 4096) * 4096;
    const IoRequest req{IoKind::kRead, off, 64 * kKiB};
    const IoCompletion a = serial.submit(req, t);
    const auto b = batched.submit_batch({&req, 1}, t);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(a.start, b[0].start);
    EXPECT_EQ(a.finish, b[0].finish);
    t = a.finish;
  }
}

TEST(BatchIoTest, IoContextBatchOfOneMatchesTouchRead) {
  const SsdConfig cfg = ssd_config(2, 2);
  SsdDevice dev_a(cfg);
  SsdDevice dev_b(cfg);
  IoContext serial(dev_a);
  IoContext batched(dev_b);
  for (int i = 0; i < 8; ++i) {
    const IoRequest req{IoKind::kRead,
                        static_cast<uint64_t>(i) * 64 * kKiB, 64 * kKiB};
    ASSERT_TRUE(serial.touch_read_checked(req.offset, req.length).ok());
    submit_batch(batched, {&req, 1});
    EXPECT_EQ(serial.now(), batched.now());
  }
}

TEST(BatchIoTest, HddFifoBatchMatchesSerialLoop) {
  // With kFifo the batch serializes through the single actuator in
  // submission order, exactly like a serial loop that waits out each IO.
  HddConfig cfg = hdd_config();
  cfg.batch_policy = SchedPolicy::kFifo;
  HddDevice serial(cfg, 5);
  HddDevice batched(cfg, 5);
  std::vector<IoRequest> reqs;
  Rng rng(17);
  for (int i = 0; i < 16; ++i) {
    const uint64_t off = rng.uniform(cfg.capacity_bytes / 4096) * 4096;
    reqs.push_back({IoKind::kRead, off, 4096});
  }
  SimTime t = 0;
  std::vector<IoCompletion> expect;
  for (const IoRequest& r : reqs) {
    const IoCompletion c = serial.submit(r, t);
    expect.push_back(c);
    t = c.finish;
  }
  const auto got = batched.submit_batch(reqs, 0);
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].start, expect[i].start) << "request " << i;
    EXPECT_EQ(got[i].finish, expect[i].finish) << "request " << i;
  }
}

TEST(BatchIoTest, HddSstfBatchNoSlowerThanFifo) {
  HddConfig fifo_cfg = hdd_config();
  fifo_cfg.batch_policy = SchedPolicy::kFifo;
  HddConfig sstf_cfg = hdd_config();
  sstf_cfg.batch_policy = SchedPolicy::kSstf;

  std::vector<IoRequest> reqs;
  Rng rng(23);
  for (int i = 0; i < 32; ++i) {
    const uint64_t off = rng.uniform(fifo_cfg.capacity_bytes / 4096) * 4096;
    reqs.push_back({IoKind::kRead, off, 4096});
  }
  HddDevice fifo(fifo_cfg, 7);
  HddDevice sstf(sstf_cfg, 7);
  SimTime fifo_done = 0, sstf_done = 0;
  for (const IoCompletion& c : fifo.submit_batch(reqs, 0)) {
    fifo_done = std::max(fifo_done, c.finish);
  }
  for (const IoCompletion& c : sstf.submit_batch(reqs, 0)) {
    sstf_done = std::max(sstf_done, c.finish);
  }
  // Seek-sorted service of a random window can only reduce total seeking.
  EXPECT_LE(sstf_done, fifo_done);
}

TEST(BatchIoTest, SsdBatchExploitsDieParallelism) {
  // The PDAM acceptance bar: P ≥ 8 independent IOs served as one batch
  // must run ≥ 1.5× faster than the serial one-at-a-time path. With 16
  // dies and 16 disjoint-die requests the win should be near-linear.
  const SsdConfig cfg = ssd_config(4, 4);  // P = 16 dies
  std::vector<IoRequest> reqs;
  for (int i = 0; i < 16; ++i) {
    // Consecutive stripes round-robin across all 16 dies.
    reqs.push_back({IoKind::kRead,
                    static_cast<uint64_t>(i) * cfg.stripe_bytes, 64 * kKiB});
  }
  SsdDevice serial_dev(cfg);
  IoContext serial(serial_dev);
  for (const IoRequest& r : reqs) {
    ASSERT_TRUE(serial.touch_read_checked(r.offset, r.length).ok());
  }
  const SimTime serial_elapsed = serial.now();

  SsdDevice batch_dev(cfg);
  IoContext batched(batch_dev);
  submit_batch(batched, reqs);
  const SimTime batch_elapsed = batched.now();

  ASSERT_GT(batch_elapsed, 0u);
  const double speedup = static_cast<double>(serial_elapsed) /
                         static_cast<double>(batch_elapsed);
  EXPECT_GE(speedup, 1.5);
  EXPECT_GE(speedup, 8.0);  // disjoint dies: expect near the full P = 16
}

TEST(BatchIoTest, MultiStripeRequestsPayFullDispatchWeight) {
  // Regression for the first-stripe-only bucketing bug: batch dispatch
  // buckets requests by their FIRST stripe's die, but a w-stripe request
  // occupies w dies' worth of service. It must therefore consume w
  // round-robin credits (its bucket sits out the next w−1 rounds) instead
  // of letting its bucket claim a fresh slot every round and starve other
  // dies' requests on shared downstream resources.
  //
  // A slow host link serializes payloads in dispatch order, making that
  // order observable. Buckets: die 0 holds A (4-stripe) then B; die 1
  // holds C then D. Weighted round-robin dispatches A, C, D, B — die 1's
  // second request overtakes die 0's because A already spent die 0's
  // credit four rounds ahead. The buggy unweighted order was A, C, B, D.
  SsdConfig cfg = ssd_config(2, 2);
  cfg.link_bps = 1e6;  // 64 KiB ≈ 65 ms on the link: dominates flash time
  SsdDevice dev(cfg);
  const std::vector<IoRequest> reqs = {
      {IoKind::kRead, 0, 256 * kKiB},              // A: dies 0..3, bucket 0
      {IoKind::kRead, 4 * 64 * kKiB, 64 * kKiB},   // B: die 0
      {IoKind::kRead, 64 * kKiB, 64 * kKiB},       // C: die 1
      {IoKind::kRead, 5 * 64 * kKiB, 64 * kKiB},   // D: die 1
  };
  const std::vector<IoCompletion> cs = dev.submit_batch(reqs, 0);
  ASSERT_EQ(cs.size(), 4u);
  EXPECT_LT(cs[3].finish, cs[1].finish);  // D crosses the link before B
}

TEST(BatchIoTest, BatchAdvancesClockToMaxNotSum) {
  const SsdConfig cfg = ssd_config(4, 4);
  SsdDevice dev(cfg);
  IoContext io(dev);
  std::vector<IoRequest> reqs;
  for (int i = 0; i < 8; ++i) {
    reqs.push_back({IoKind::kRead,
                    static_cast<uint64_t>(i) * cfg.stripe_bytes, 64 * kKiB});
  }
  const auto cs = submit_batch(io, reqs);
  SimTime max_finish = 0;
  SimTime sum = 0;
  for (const IoCompletion& c : cs) {
    max_finish = std::max(max_finish, c.finish);
    sum += c.finish - c.start;
  }
  EXPECT_EQ(io.now(), max_finish);
  EXPECT_LT(io.now(), sum);  // strictly better than serial accumulation
}

TEST(BatchIoDeathTest, ClockMustNotRunBackwards) {
  SsdDevice dev(ssd_config(2, 2));
  dev.submit({IoKind::kRead, 0, 4096}, 1000);
  EXPECT_DEATH(dev.submit({IoKind::kRead, 0, 4096}, 500),
               "clock ran backwards");
}

TEST(BatchIoDeathTest, BatchClockMustNotRunBackwards) {
  HddDevice dev(hdd_config());
  const IoRequest req{IoKind::kRead, 0, 4096};
  dev.submit_batch({&req, 1}, 1000);
  EXPECT_DEATH(dev.submit_batch({&req, 1}, 999), "clock ran backwards");
}

}  // namespace
}  // namespace damkit::sim
