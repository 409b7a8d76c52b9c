#include "sim/hdd.h"

#include <gtest/gtest.h>

#include "util/bytes.h"
#include "util/rng.h"

namespace damkit::sim {
namespace {

HddConfig small_config() {
  HddConfig cfg;
  cfg.name = "test-hdd";
  cfg.capacity_bytes = 8ULL * kGiB;
  cfg.rpm = 7200;
  cfg.track_to_track_s = 0.001;
  cfg.full_stroke_s = 0.015;
  cfg.avg_bandwidth_bps = 150e6;
  cfg.track_bytes = kMiB;
  return cfg;
}

TEST(HddTest, SeekCurveMonotone) {
  HddDevice dev(small_config());
  EXPECT_DOUBLE_EQ(dev.seek_time_s(0), 0.0);
  double prev = 0.0;
  for (uint64_t d = 1; d < dev.num_tracks(); d *= 4) {
    const double s = dev.seek_time_s(d);
    EXPECT_GT(s, prev);
    prev = s;
  }
  EXPECT_GE(dev.seek_time_s(1), small_config().track_to_track_s);
  EXPECT_LE(dev.seek_time_s(dev.num_tracks() - 1),
            small_config().full_stroke_s * 1.001);
}

TEST(HddTest, ZonedBandwidthOuterFaster) {
  HddDevice dev(small_config());
  EXPECT_GT(dev.bandwidth_at(0), dev.bandwidth_at(dev.num_tracks() - 1));
  // Surface-average close to configured average.
  double sum = 0.0;
  const int samples = 100;
  for (int i = 0; i < samples; ++i) {
    sum += dev.bandwidth_at(dev.num_tracks() * i / samples);
  }
  EXPECT_NEAR(sum / samples, 150e6, 150e6 * 0.02);
}

TEST(HddTest, CompletionAfterSubmission) {
  HddDevice dev(small_config());
  const IoCompletion c = dev.submit({IoKind::kRead, 0, 4096}, 1000);
  EXPECT_GE(c.start, 1000u);
  EXPECT_GT(c.finish, c.start);
}

TEST(HddTest, SingleActuatorQueues) {
  HddDevice dev(small_config());
  const IoCompletion a = dev.submit({IoKind::kRead, 0, 4096}, 0);
  // Submitted while the first IO is in flight: must start after it ends.
  const IoCompletion b = dev.submit({IoKind::kRead, 4 * kGiB, 4096}, 1);
  EXPECT_GE(b.start, a.finish);
}

TEST(HddTest, LargerIosTakeLonger) {
  const HddConfig cfg = small_config();
  SimTime small_lat, big_lat;
  {
    HddDevice dev(cfg, 1);
    const IoCompletion c = dev.submit({IoKind::kRead, kGiB, 4096}, 0);
    small_lat = c.finish - c.start;
  }
  {
    HddDevice dev(cfg, 1);  // same seed → same initial head position
    const IoCompletion c = dev.submit({IoKind::kRead, kGiB, 16 * kMiB}, 0);
    big_lat = c.finish - c.start;
  }
  EXPECT_GT(big_lat, small_lat);
  // 16 MiB at ~150 MB/s is ~107 ms of transfer; must dominate.
  EXPECT_GT(to_seconds(big_lat), 0.08);
}

TEST(HddTest, SequentialFasterThanRandom) {
  const HddConfig cfg = small_config();
  // 64 sequential 64 KiB reads.
  HddDevice seq(cfg, 7);
  SimTime t = 0;
  for (int i = 0; i < 64; ++i) {
    t = seq.submit({IoKind::kRead, static_cast<uint64_t>(i) * 64 * kKiB,
                    64 * kKiB},
                   t)
            .finish;
  }
  const SimTime seq_total = t;
  // 64 random 64 KiB reads.
  HddDevice rnd(cfg, 7);
  Rng rng(5);
  t = 0;
  for (int i = 0; i < 64; ++i) {
    const uint64_t off = rng.uniform(cfg.capacity_bytes / kMiB) * kMiB;
    t = rnd.submit({IoKind::kRead, off, 64 * kKiB}, t).finish;
  }
  EXPECT_LT(seq_total * 3, t);  // random pays seeks; sequential mostly not
}

TEST(HddTest, MeanRandomSetupNearConfigured) {
  const HddConfig cfg = small_config();
  HddDevice dev(cfg, 11);
  Rng rng(13);
  const int n = 400;
  SimTime t = 0;
  SimTime busy_sum = 0;
  for (int i = 0; i < n; ++i) {
    const uint64_t off = rng.uniform(cfg.capacity_bytes / 4096) * 4096;
    const IoCompletion c = dev.submit({IoKind::kRead, off, 4096}, t);
    busy_sum += c.finish - c.start;
    t = c.finish;
  }
  const double mean_s = to_seconds(busy_sum) / n;
  // Expected setup from the config (a 4 KiB transfer adds only ~27 us).
  EXPECT_NEAR(mean_s, cfg.expected_setup_s(), cfg.expected_setup_s() * 0.15);
}

TEST(HddTest, StatsAccounting) {
  HddDevice dev(small_config());
  dev.submit({IoKind::kRead, 0, 4096}, 0);
  dev.submit({IoKind::kWrite, 8192, 1024}, 0);
  EXPECT_EQ(dev.stats().reads, 1u);
  EXPECT_EQ(dev.stats().writes, 1u);
  EXPECT_EQ(dev.stats().bytes_read, 4096u);
  EXPECT_EQ(dev.stats().bytes_written, 1024u);
  EXPECT_GT(dev.stats().busy_time, 0u);
  dev.clear_stats();
  EXPECT_EQ(dev.stats().reads, 0u);
}

TEST(HddTest, PayloadRoundTripWithTiming) {
  HddDevice dev(small_config());
  std::vector<uint8_t> out(64, 0);
  std::vector<uint8_t> in(64);
  for (size_t i = 0; i < in.size(); ++i) in[i] = static_cast<uint8_t>(i);
  IoCompletion c;
  ASSERT_TRUE(dev.write_checked(4096, in, 0, &c).ok());
  ASSERT_TRUE(dev.read_checked(4096, out, c.finish, &c).ok());
  EXPECT_EQ(in, out);
  EXPECT_GT(c.finish, 0u);
}

TEST(HddDeathTest, OutOfRangeIo) {
  HddDevice dev(small_config());
  EXPECT_DEATH(dev.submit({IoKind::kRead, 8ULL * kGiB - 10, 4096}, 0),
               "past device end");
  EXPECT_DEATH(dev.submit({IoKind::kRead, 0, 0}, 0), "zero-length");
}

TEST(HddTest, IoContextAdvancesClock) {
  HddDevice dev(small_config());
  IoContext io(dev);
  EXPECT_EQ(io.now(), 0u);
  std::vector<uint8_t> buf(4096);
  ASSERT_TRUE(io.read_checked(0, buf).ok());
  const SimTime after_first = io.now();
  EXPECT_GT(after_first, 0u);
  ASSERT_TRUE(io.touch_read_checked(kGiB, 1 * kMiB).ok());
  EXPECT_GT(io.now(), after_first);
}

}  // namespace
}  // namespace damkit::sim
