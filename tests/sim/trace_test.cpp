#include "sim/trace.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "sim/hdd.h"
#include "sim/ssd.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace damkit::sim {
namespace {

HddConfig disk_config() {
  HddConfig cfg;
  cfg.capacity_bytes = 4ULL * kGiB;
  return cfg;
}

TEST(TraceTest, RecordsServedIos) {
  HddDevice dev(disk_config(), 1);
  IoTrace trace;
  dev.set_trace(&trace);
  SimTime now = 0;
  now = dev.submit({IoKind::kRead, 0, 4096}, now).finish;
  now = dev.submit({IoKind::kWrite, 8192, 1024}, now).finish;
  dev.set_trace(nullptr);
  dev.submit({IoKind::kRead, 0, 4096}, now);  // not recorded
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.records()[0].kind, IoKind::kRead);
  EXPECT_EQ(trace.records()[1].kind, IoKind::kWrite);
  EXPECT_EQ(trace.records()[1].offset, 8192u);
  EXPECT_EQ(trace.records()[1].length, 1024u);
  EXPECT_GT(trace.records()[0].finish, trace.records()[0].start);
  // The submission clock is captured per record: the second IO was issued
  // at the first one's completion time.
  EXPECT_EQ(trace.records()[0].submit, 0u);
  EXPECT_EQ(trace.records()[1].submit, trace.records()[0].finish);
  EXPECT_LE(trace.records()[1].submit, trace.records()[1].start);
  EXPECT_EQ(trace.total_bytes(), 4096u + 1024);
}

TEST(TraceTest, BatchMembersShareSubmitTime) {
  SsdConfig cfg;
  cfg.capacity_bytes = 4ULL * kGiB;
  SsdDevice dev(cfg);
  IoTrace trace;
  dev.set_trace(&trace);
  const std::vector<IoRequest> reqs = {
      {IoKind::kRead, 0, 4096},
      {IoKind::kRead, 64 * kMiB, 4096},
      {IoKind::kRead, 128 * kMiB, 4096},
  };
  dev.submit_batch(reqs, /*now=*/500);
  ASSERT_EQ(trace.size(), 3u);
  for (const auto& r : trace.records()) EXPECT_EQ(r.submit, 500u);
}

TEST(TraceTest, SequentialFraction) {
  IoTrace trace;
  // Build synthetic records directly.
  HddDevice dev(disk_config(), 1);
  dev.set_trace(&trace);
  SimTime now = 0;
  for (int i = 0; i < 10; ++i) {
    now = dev.submit({IoKind::kRead, static_cast<uint64_t>(i) * 4096, 4096},
                     now)
              .finish;
  }
  EXPECT_DOUBLE_EQ(trace.sequential_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(trace.mean_seek_bytes(), 0.0);
  // One random jump out of 10 transitions.
  now = dev.submit({IoKind::kRead, 1 * kGiB, 4096}, now).finish;
  EXPECT_NEAR(trace.sequential_fraction(), 9.0 / 10.0, 1e-12);
  EXPECT_GT(trace.mean_seek_bytes(), 1e7);
}

TEST(TraceTest, CsvRoundTrip) {
  HddDevice dev(disk_config(), 1);
  IoTrace trace;
  dev.set_trace(&trace);
  Rng rng(3);
  SimTime now = 0;
  for (int i = 0; i < 50; ++i) {
    const uint64_t off = rng.uniform(1 << 18) * 4096;
    const IoKind kind = (i % 3 == 0) ? IoKind::kWrite : IoKind::kRead;
    now = dev.submit({kind, off, 4096}, now).finish;
  }
  const std::string csv = trace.to_csv();
  const StatusOr<IoTrace> parsed = IoTrace::from_csv(csv);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const IoTrace& back = *parsed;
  ASSERT_EQ(back.size(), trace.size());
  for (size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back.records()[i].kind, trace.records()[i].kind);
    EXPECT_EQ(back.records()[i].offset, trace.records()[i].offset);
    EXPECT_EQ(back.records()[i].length, trace.records()[i].length);
    EXPECT_EQ(back.records()[i].submit, trace.records()[i].submit);
    EXPECT_EQ(back.records()[i].start, trace.records()[i].start);
    EXPECT_EQ(back.records()[i].finish, trace.records()[i].finish);
  }
}

TEST(TraceTest, SaveLoadFile) {
  HddDevice dev(disk_config(), 1);
  IoTrace trace;
  dev.set_trace(&trace);
  dev.submit({IoKind::kRead, 4096, 4096}, 0);
  const std::string path = testing::TempDir() + "/damkit_trace_test.csv";
  ASSERT_TRUE(trace.save(path));
  const StatusOr<IoTrace> back = IoTrace::load(path);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  ASSERT_EQ(back->size(), 1u);
  EXPECT_EQ(back->records()[0].offset, 4096u);
  std::remove(path.c_str());
}

TEST(TraceTest, ReplayOnDifferentDevice) {
  // Record a random-read workload on the HDD, replay on an SSD: the same
  // logical workload is far faster (no seeks) — cross-device what-if.
  HddDevice hdd(disk_config(), 1);
  IoTrace trace;
  hdd.set_trace(&trace);
  Rng rng(7);
  SimTime now = 0;
  for (int i = 0; i < 100; ++i) {
    const uint64_t off = rng.uniform(1 << 18) * 4096;
    now = hdd.submit({IoKind::kRead, off, 4096}, now).finish;
  }
  const SimTime hdd_time = now;

  SsdConfig ssd_cfg;
  ssd_cfg.capacity_bytes = 4ULL * kGiB;
  SsdDevice ssd(ssd_cfg);
  const SimTime ssd_time = replay_trace(ssd, trace);
  EXPECT_LT(ssd_time * 10, hdd_time);
  EXPECT_EQ(ssd.stats().reads, 100u);
}

TEST(TraceTest, ReplayPreservesOrderAndSizes) {
  HddDevice a(disk_config(), 1);
  IoTrace trace;
  a.set_trace(&trace);
  SimTime now = 0;
  now = a.submit({IoKind::kWrite, 0, 8192}, now).finish;
  now = a.submit({IoKind::kRead, 1 * kMiB, 4096}, now).finish;

  HddDevice b(disk_config(), 1);
  replay_trace(b, trace);
  EXPECT_EQ(b.stats().writes, 1u);
  EXPECT_EQ(b.stats().reads, 1u);
  EXPECT_EQ(b.stats().bytes_written, 8192u);
  EXPECT_EQ(b.stats().bytes_read, 4096u);
}

// Bad input is a Status the caller reports, never an abort.
TEST(TraceTest, MalformedCsvIsAnError) {
  const auto expect_error = [](const StatusOr<IoTrace>& got, StatusCode code,
                               const std::string& text) {
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), code);
    EXPECT_NE(got.status().message().find(text), std::string::npos)
        << got.status().to_string();
  };
  expect_error(IoTrace::from_csv("kind,offset\nR,1,2\n"),
               StatusCode::kInvalidArgument, "malformed");
  expect_error(IoTrace::from_csv("header\nX,1,2,3,4,5\n"),
               StatusCode::kInvalidArgument, "bad trace kind");
  expect_error(IoTrace::from_csv("no header"), StatusCode::kInvalidArgument,
               "missing header");
  expect_error(IoTrace::load("/nonexistent/damkit.csv"), StatusCode::kNotFound,
               "cannot open");
  expect_error(IoTrace::load(testing::TempDir()), StatusCode::kInvalidArgument,
               "cannot read");
}

TEST(TraceTest, EmptyTraceProperties) {
  IoTrace trace;
  EXPECT_TRUE(trace.empty());
  EXPECT_DOUBLE_EQ(trace.sequential_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(trace.mean_seek_bytes(), 0.0);
  EXPECT_EQ(trace.total_bytes(), 0u);
  HddDevice dev(disk_config(), 1);
  EXPECT_EQ(replay_trace(dev, trace), 0u);
}

}  // namespace
}  // namespace damkit::sim
