#include <cmath>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/device.h"
#include "sim/hdd.h"
#include "sim/profiles.h"
#include "sim/ssd.h"
#include "stats/metrics.h"
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

// A uniform random-read workload's measured setup/transfer decomposition
// must agree with HddConfig's closed-form affine expectations — the same
// consistency CI's bench-smoke gate enforces, at unit-test scale.
TEST(DeviceMetrics, HddAffineSplitMatchesClosedForm) {
  const HddConfig config = paper_hdd_profiles()[0];
  HddDevice dev(config);
  IoContext io(dev);
  Rng rng(7);
  const uint64_t tracks = config.capacity_bytes / config.track_bytes;
  const uint64_t io_bytes = config.track_bytes / 4;  // track-aligned, < track
  for (int i = 0; i < 1500; ++i) {
    const uint64_t offset = (rng.next() % tracks) * config.track_bytes;
    ASSERT_TRUE(io.touch_read_checked(offset, io_bytes).ok());
  }

  const DeviceStats& st = dev.stats();
  EXPECT_EQ(st.reads, 1500u);
  // setup + transfer account for the whole busy time.
  EXPECT_EQ(st.setup_time + st.transfer_time, st.busy_time);

  const double measured_setup = st.mean_setup_s_per_io();
  const double predicted_setup = config.expected_setup_s();
  EXPECT_NEAR(measured_setup / predicted_setup, 1.0, 0.05);

  const double measured_transfer = st.mean_transfer_s_per_byte();
  const double predicted_transfer = config.expected_transfer_s_per_byte();
  EXPECT_NEAR(measured_transfer / predicted_transfer, 1.0, 0.05);

  // The exporter publishes both sides of the comparison.
  stats::MetricsRegistry reg;
  dev.export_metrics(reg, "hdd.");
  EXPECT_DOUBLE_EQ(reg.gauge("hdd.setup_seconds_per_io"), measured_setup);
  EXPECT_DOUBLE_EQ(reg.gauge("hdd.predicted_setup_seconds_per_io"),
                   predicted_setup);
  EXPECT_EQ(reg.counter("hdd.reads"), 1500u);
#if DAMKIT_STATS_ENABLED
  // Per-IO size histograms are only recorded when stats are compiled in.
  ASSERT_NE(reg.histogram("hdd.io_size_bytes"), nullptr);
  EXPECT_EQ(reg.histogram("hdd.io_size_bytes")->count(), 1500u);
#endif
  // Seek + rotation + command decomposition sums to the setup gauge.
  EXPECT_NEAR(reg.gauge("hdd.seek_seconds") + reg.gauge("hdd.rot_wait_seconds") +
                  reg.gauge("hdd.command_seconds"),
              reg.gauge("hdd.setup_seconds"), 1e-9);
}

// A batch of one must time and count exactly like a serial submission:
// the batched path is an optimization contract, not a semantic change.
TEST(DeviceMetrics, BatchOfOneEquivalentToSerial) {
  const SsdConfig config = testbed_ssd_profile();
  const std::vector<IoRequest> reqs = {
      {IoKind::kRead, 0, 4096},
      {IoKind::kRead, config.stripe_bytes, 16384},
      {IoKind::kWrite, 4 * config.stripe_bytes, 8192},
  };

  SsdDevice serial_dev(config);
  IoContext serial_io(serial_dev);
  std::vector<IoCompletion> serial;
  for (const auto& r : reqs) {
    serial.push_back(serial_dev.submit(r, serial_io.now()));
    serial_io.advance_to(serial.back().finish);
  }

  SsdDevice batched_dev(config);
  IoContext batched_io(batched_dev);
  std::vector<IoCompletion> batched;
  for (const auto& r : reqs) {
    const auto cs = submit_batch(batched_io, {&r, 1});
    batched.push_back(cs[0]);
  }

  ASSERT_EQ(serial.size(), batched.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].start, batched[i].start) << i;
    EXPECT_EQ(serial[i].finish, batched[i].finish) << i;
  }
  EXPECT_EQ(serial_io.now(), batched_io.now());

  // Identical IO counters; only the batch-path counters differ.
  const DeviceStats& s = serial_dev.stats();
  const DeviceStats& b = batched_dev.stats();
  EXPECT_EQ(s.reads, b.reads);
  EXPECT_EQ(s.writes, b.writes);
  EXPECT_EQ(s.bytes_read, b.bytes_read);
  EXPECT_EQ(s.setup_time, b.setup_time);
  EXPECT_EQ(s.transfer_time, b.transfer_time);
  EXPECT_EQ(s.batches, 0u);
  EXPECT_EQ(b.batches, 3u);
  EXPECT_EQ(b.batch_ios, 3u);
#if DAMKIT_STATS_ENABLED
  EXPECT_EQ(b.batch_ios > 0 ? batched_dev.batch_width_histogram().max() : 0u,
            1u);
#endif
}

TEST(DeviceMetrics, SsdExportsPerDieUtilization) {
  SsdConfig config;  // transparent round-robin striping: die d = stripe d
  config.channels = 2;
  config.dies_per_channel = 2;
  config.hashed_striping = false;
  SsdDevice dev(config);
  IoContext io(dev);
  // One stripe-read per die: utilizations come out balanced.
  std::vector<IoRequest> batch;
  for (int d = 0; d < config.total_dies(); ++d) {
    batch.push_back({IoKind::kRead,
                     static_cast<uint64_t>(d) * config.stripe_bytes,
                     config.stripe_bytes});
  }
  submit_batch(io, batch);

  stats::MetricsRegistry reg;
  dev.export_metrics(reg, "ssd.");
  EXPECT_GT(reg.gauge("ssd.mean_die_utilization"), 0.0);
  for (int d = 0; d < config.total_dies(); ++d) {
    const std::string key =
        "ssd.die" + std::to_string(d) + ".utilization";
    ASSERT_TRUE(reg.has_gauge(key)) << key;
    EXPECT_NEAR(reg.gauge(key), reg.gauge("ssd.mean_die_utilization"), 1e-9);
  }
}

}  // namespace
}  // namespace damkit::sim
