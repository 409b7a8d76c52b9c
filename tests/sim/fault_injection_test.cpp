#include "sim/fault_injection.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/profiles.h"
#include "sim/ssd.h"
#include "stats/metrics.h"

namespace damkit::sim {
namespace {

constexpr uint64_t kIo = 4096;

FaultConfig all_faults(uint64_t seed, double rate) {
  FaultConfig cfg;
  cfg.seed = seed;
  cfg.read_error_rate = rate;
  cfg.write_error_rate = rate;
  cfg.torn_write_rate = rate / 2.0;
  cfg.latency_spike_rate = rate;
  return cfg;
}

// These tests count one checked IO per call, so their contexts make a
// single attempt instead of retrying.
IoContext single_attempt_io(Device& dev) {
  IoContext io(dev);
  io.set_retry_policy({.max_attempts = 1});
  return io;
}

// One mixed checked read/write pass; returns the per-request status codes.
std::vector<StatusCode> run_schedule(FaultInjectingDevice& dev, size_t ops) {
  IoContext io = single_attempt_io(dev);
  std::vector<uint8_t> buf(kIo, 0xab);
  std::vector<StatusCode> codes;
  codes.reserve(ops);
  for (size_t i = 0; i < ops; ++i) {
    const uint64_t off = (i % 64) * kIo;
    const Status s = (i % 2 == 0) ? io.write_checked(off, buf)
                                  : io.read_checked(off, buf);
    codes.push_back(s.code());
  }
  return codes;
}

TEST(FaultInjectionTest, SameSeedReplaysSameSchedule) {
  SsdDevice inner_a(testbed_ssd_profile());
  SsdDevice inner_b(testbed_ssd_profile());
  FaultInjectingDevice a(inner_a, all_faults(1234, 0.2));
  FaultInjectingDevice b(inner_b, all_faults(1234, 0.2));
  const auto codes_a = run_schedule(a, 400);
  const auto codes_b = run_schedule(b, 400);
  EXPECT_EQ(codes_a, codes_b);
  EXPECT_EQ(a.fault_stats().injected_read_errors,
            b.fault_stats().injected_read_errors);
  EXPECT_EQ(a.fault_stats().injected_write_errors,
            b.fault_stats().injected_write_errors);
  EXPECT_EQ(a.fault_stats().injected_torn_writes,
            b.fault_stats().injected_torn_writes);
  EXPECT_EQ(a.fault_stats().injected_latency_spikes,
            b.fault_stats().injected_latency_spikes);
  EXPECT_GT(a.fault_stats().injected_errors(), 0u);
}

TEST(FaultInjectionTest, DifferentSeedsDiverge) {
  SsdDevice inner_a(testbed_ssd_profile());
  SsdDevice inner_b(testbed_ssd_profile());
  FaultInjectingDevice a(inner_a, all_faults(1, 0.2));
  FaultInjectingDevice b(inner_b, all_faults(2, 0.2));
  EXPECT_NE(run_schedule(a, 400), run_schedule(b, 400));
}

TEST(FaultInjectionTest, ZeroRatesAreTimingTransparent) {
  // A wrapper with every rate at zero must charge exactly the inner
  // model's time and never fail — code that has not opted into faults
  // keeps its previous behavior bit-for-bit.
  SsdDevice plain(testbed_ssd_profile());
  SsdDevice inner(testbed_ssd_profile());
  FaultInjectingDevice wrapped(inner, FaultConfig{});
  IoContext plain_io = single_attempt_io(plain);
  IoContext wrapped_io = single_attempt_io(wrapped);
  std::vector<uint8_t> buf(kIo);
  for (size_t i = 0; i < 100; ++i) {
    const uint64_t off = (i * 7 % 64) * kIo;
    ASSERT_TRUE(plain_io.write_checked(off, buf).ok());
    ASSERT_TRUE(wrapped_io.write_checked(off, buf).ok());
    ASSERT_TRUE(plain_io.read_checked(off, buf).ok());
    ASSERT_TRUE(wrapped_io.read_checked(off, buf).ok());
  }
  EXPECT_EQ(plain_io.now(), wrapped_io.now());
}

TEST(FaultInjectionTest, TransientReadLeavesPayloadUntouched) {
  SsdDevice inner(testbed_ssd_profile());
  FaultConfig cfg;
  cfg.seed = 7;
  cfg.read_error_rate = 1.0;  // every checked read fails
  FaultInjectingDevice dev(inner, cfg);
  IoContext io = single_attempt_io(dev);

  std::vector<uint8_t> data(kIo, 0x5a);
  ASSERT_TRUE(io.write_checked(0, data).ok());

  std::vector<uint8_t> out(kIo, 0xee);
  const SimTime before = io.now();
  const Status s = io.read_checked(0, out);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  // Payload must not move on a faulted read...
  EXPECT_EQ(out, std::vector<uint8_t>(kIo, 0xee));
  // ...but the failed IO still occupied the device.
  EXPECT_GT(io.now(), before);
  EXPECT_EQ(dev.fault_stats().injected_read_errors, 1u);
}

TEST(FaultInjectionTest, TransientWriteLandsNothing) {
  SsdDevice inner(testbed_ssd_profile());
  FaultConfig cfg;
  cfg.seed = 7;
  cfg.write_error_rate = 1.0;
  FaultInjectingDevice dev(inner, cfg);
  IoContext io = single_attempt_io(dev);

  std::vector<uint8_t> data(kIo, 0x5a);
  EXPECT_EQ(io.write_checked(0, data).code(), StatusCode::kUnavailable);

  std::vector<uint8_t> out(kIo, 0xee);
  dev.read_bytes(0, out);  // payload-only: an unwritten range reads zero
  EXPECT_EQ(out, std::vector<uint8_t>(kIo, 0));
}

TEST(FaultInjectionTest, TornWritePersistsStrictPrefix) {
  SsdDevice inner(testbed_ssd_profile());
  FaultConfig cfg;
  cfg.seed = 99;
  cfg.torn_write_rate = 1.0;  // every checked write tears
  FaultInjectingDevice dev(inner, cfg);
  IoContext io = single_attempt_io(dev);

  std::vector<uint8_t> data(kIo);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 31 + 1);  // never zero at index 0
  }
  EXPECT_EQ(io.write_checked(0, data).code(), StatusCode::kCorruption);

  std::vector<uint8_t> out(kIo, 0xee);
  dev.read_bytes(0, out);
  // Some strict prefix of the payload landed; everything after it is
  // still unwritten (zero). Find the boundary and check both halves.
  size_t torn = 0;
  while (torn < out.size() && out[torn] == data[torn]) ++torn;
  EXPECT_LT(torn, data.size());  // strict: the full write never lands
  for (size_t i = torn; i < out.size(); ++i) {
    ASSERT_EQ(out[i], 0u) << "byte " << i << " past the torn prefix landed";
  }
  EXPECT_EQ(dev.fault_stats().injected_torn_writes, 1u);
}

TEST(FaultInjectionTest, LatencySpikesDelayCompletionOnly) {
  SsdDevice plain(testbed_ssd_profile());
  SsdDevice inner(testbed_ssd_profile());
  FaultConfig cfg;
  cfg.seed = 5;
  cfg.latency_spike_rate = 1.0;  // every IO spikes
  cfg.latency_spike_ns = 3 * kNsPerMs;
  FaultInjectingDevice dev(inner, cfg);
  IoContext plain_io = single_attempt_io(plain);
  IoContext io = single_attempt_io(dev);

  std::vector<uint8_t> buf(kIo);
  ASSERT_TRUE(plain_io.write_checked(0, buf).ok());
  ASSERT_TRUE(io.write_checked(0, buf).ok());  // a spike is not an error
  EXPECT_EQ(io.now(), plain_io.now() + cfg.latency_spike_ns);
  EXPECT_EQ(dev.fault_stats().injected_latency_spikes, 1u);

  std::vector<uint8_t> out(kIo);
  dev.read_bytes(0, out);
  EXPECT_EQ(out, buf);  // the spiked write still landed in full
}

TEST(FaultInjectionTest, BatchReportsPerRequestVerdicts) {
  SsdDevice inner(testbed_ssd_profile());
  FaultConfig cfg;
  cfg.seed = 11;
  cfg.read_error_rate = 0.5;
  FaultInjectingDevice dev(inner, cfg);

  std::vector<IoRequest> reqs;
  for (uint64_t i = 0; i < 64; ++i) {
    reqs.push_back({IoKind::kRead, i * kIo, kIo});
  }
  std::vector<IoCompletion> completions;
  std::vector<Status> per_io;
  ASSERT_TRUE(dev.submit_batch_checked(reqs, 0, &completions, &per_io).ok());
  ASSERT_EQ(completions.size(), reqs.size());
  ASSERT_EQ(per_io.size(), reqs.size());
  size_t failed = 0;
  for (const Status& s : per_io) {
    if (!s.ok()) {
      EXPECT_EQ(s.code(), StatusCode::kUnavailable);
      ++failed;
    }
  }
  // At rate 0.5 over 64 draws, all-pass and all-fail are both ~1e-19.
  EXPECT_GT(failed, 0u);
  EXPECT_LT(failed, reqs.size());
  EXPECT_EQ(dev.fault_stats().injected_read_errors, failed);
  // Completions were computed for every request, faulted or not.
  for (const IoCompletion& c : completions) EXPECT_GT(c.finish, 0u);
}

TEST(FaultInjectionTest, TimingOnlyPathsNeverFault) {
  SsdDevice inner(testbed_ssd_profile());
  FaultInjectingDevice dev(inner, all_faults(3, 1.0));
  // submit()/submit_batch() are the timing-model entry points (closed-loop
  // drivers, the scheduler, trace replay) and move no payload: they must
  // ignore error draws entirely. Only spikes apply, as slow IO is not
  // error.
  const IoRequest reqs[] = {{IoKind::kWrite, 0, kIo},
                            {IoKind::kRead, kIo, kIo}};
  const IoCompletion c = dev.submit(reqs[0], 0);
  const std::vector<IoCompletion> cs = dev.submit_batch(reqs, c.finish);
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(dev.stats().reads + dev.stats().writes, 3u);
  EXPECT_EQ(dev.checked_ios(), 0u);  // the fault hook was never consulted
  EXPECT_EQ(dev.fault_stats().injected_errors(), 0u);
  EXPECT_EQ(dev.fault_stats().injected_latency_spikes, 3u);
}

TEST(FaultInjectionTest, ExportsFaultCounters) {
  SsdDevice inner(testbed_ssd_profile());
  FaultInjectingDevice dev(inner, all_faults(21, 0.3));
  run_schedule(dev, 200);
  stats::MetricsRegistry reg;
  dev.export_metrics(reg, "dev.");
  EXPECT_EQ(reg.counter("dev.faults.checked_reads"), 100u);
  EXPECT_EQ(reg.counter("dev.faults.checked_writes"), 100u);
  EXPECT_EQ(reg.counter("dev.faults.injected_read_errors"),
            dev.fault_stats().injected_read_errors);
  EXPECT_EQ(reg.counter("dev.faults.injected_write_errors"),
            dev.fault_stats().injected_write_errors);
  EXPECT_EQ(reg.counter("dev.faults.injected_torn_writes"),
            dev.fault_stats().injected_torn_writes);
  EXPECT_EQ(reg.counter("dev.faults.injected_latency_spikes"),
            dev.fault_stats().injected_latency_spikes);
  EXPECT_GT(dev.fault_stats().injected_errors(), 0u);
}

TEST(FaultInjectionTest, CrashPointFiresAtExactlyTheArmedIo) {
  SsdDevice inner(testbed_ssd_profile());
  FaultInjectingDevice dev(inner, FaultConfig{});  // zero rates: crash only
  IoContext io = single_attempt_io(dev);
  std::vector<uint8_t> buf(kIo, 0x5a);
  dev.set_crash_at(4);
  for (uint64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(io.write_checked((i - 1) * kIo, buf).ok()) << i;
  }
  EXPECT_FALSE(dev.crashed());
  // The 4th checked IO is a write: it dies kCorruption with a torn prefix.
  const Status s = io.write_checked(3 * kIo, buf);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_TRUE(dev.crashed());
  EXPECT_EQ(dev.fault_stats().crashes, 1u);
  // Every later checked IO is refused until reboot, reads included.
  EXPECT_EQ(io.read_checked(0, buf).code(), StatusCode::kUnavailable);
  EXPECT_EQ(io.write_checked(0, buf).code(), StatusCode::kUnavailable);
  EXPECT_EQ(dev.fault_stats().post_crash_rejections, 2u);

  dev.reboot();
  EXPECT_FALSE(dev.crashed());
  EXPECT_TRUE(io.write_checked(3 * kIo, buf).ok());
  // The first three writes survived the crash on the media.
  std::vector<uint8_t> out(kIo);
  dev.read_bytes(0, out);
  EXPECT_EQ(out, buf);
}

TEST(FaultInjectionTest, CrashOnReadIsUnavailableAndLeavesMediaIntact) {
  SsdDevice inner(testbed_ssd_profile());
  FaultInjectingDevice dev(inner, FaultConfig{});
  IoContext io = single_attempt_io(dev);
  std::vector<uint8_t> buf(kIo, 0x17);
  ASSERT_TRUE(io.write_checked(0, buf).ok());
  dev.crash_after(0);
  std::vector<uint8_t> out(kIo, 0);
  const Status s = io.read_checked(0, out);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(dev.crashed());
  dev.reboot();
  ASSERT_TRUE(io.read_checked(0, out).ok());
  EXPECT_EQ(out, buf);
}

TEST(FaultInjectionTest, CrashTornWriteIsDeterministicPerSeed) {
  const auto crashed_media = [](uint64_t seed) {
    SsdDevice inner(testbed_ssd_profile());
    FaultConfig cfg;
    cfg.seed = seed;
    FaultInjectingDevice dev(inner, cfg);
    IoContext io = single_attempt_io(dev);
    std::vector<uint8_t> ones(kIo, 0xFF);
    dev.set_crash_at(1);
    EXPECT_FALSE(io.write_checked(0, ones).ok());
    std::vector<uint8_t> media(kIo);
    dev.read_bytes(0, media);
    return media;
  };
  EXPECT_EQ(crashed_media(42), crashed_media(42));
  // The torn prefix is a STRICT prefix: some tail bytes never land.
  const std::vector<uint8_t> media = crashed_media(42);
  size_t landed = 0;
  while (landed < media.size() && media[landed] == 0xFF) ++landed;
  EXPECT_LT(landed, media.size());
  for (size_t i = landed; i < media.size(); ++i) {
    EXPECT_EQ(media[i], 0u) << i;
  }
}

TEST(FaultInjectionTest, ArmingACrashDoesNotPerturbFaultSchedules) {
  // The crash check consumes no randomness: the probabilistic fault
  // pattern before the crash point must be identical with and without an
  // armed crash.
  SsdDevice inner_a(testbed_ssd_profile());
  SsdDevice inner_b(testbed_ssd_profile());
  FaultInjectingDevice a(inner_a, all_faults(77, 0.25));
  FaultInjectingDevice b(inner_b, all_faults(77, 0.25));
  b.set_crash_at(151);
  const auto codes_a = run_schedule(a, 150);
  const auto codes_b = run_schedule(b, 150);
  EXPECT_EQ(codes_a, codes_b);
  EXPECT_FALSE(b.crashed());
}

TEST(FaultInjectionTest, ExportsCrashCounters) {
  SsdDevice inner(testbed_ssd_profile());
  FaultInjectingDevice dev(inner, FaultConfig{});
  IoContext io = single_attempt_io(dev);
  std::vector<uint8_t> buf(kIo);
  dev.crash_after(0);
  EXPECT_FALSE(io.write_checked(0, buf).ok());
  EXPECT_FALSE(io.read_checked(0, buf).ok());
  stats::MetricsRegistry reg;
  dev.export_metrics(reg, "dev.");
  EXPECT_EQ(reg.counter("dev.faults.crashes"), 1u);
  EXPECT_EQ(reg.counter("dev.faults.post_crash_rejections"), 1u);
}

TEST(FaultInjectionDeathTest, RejectsCrashPointInThePast) {
  SsdDevice inner(testbed_ssd_profile());
  FaultInjectingDevice dev(inner, FaultConfig{});
  IoContext io = single_attempt_io(dev);
  std::vector<uint8_t> buf(kIo);
  ASSERT_TRUE(io.write_checked(0, buf).ok());
  EXPECT_DEATH(dev.set_crash_at(1), "crash");
}

TEST(FaultInjectionDeathTest, RejectsOutOfRangeRates) {
  SsdDevice inner(testbed_ssd_profile());
  FaultConfig cfg;
  cfg.read_error_rate = 1.5;
  EXPECT_DEATH(FaultInjectingDevice(inner, cfg), "read_error_rate");
}

}  // namespace
}  // namespace damkit::sim
