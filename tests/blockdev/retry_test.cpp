// sim::IoContext's retries on a seeded fault-injecting SSD: a failed IO is
// re-attempted under the context's policy (kUnavailable always,
// kCorruption for writes only) with every backoff on the clock; a batch
// re-submits only the requests that failed, and its first give-up
// surfaces once every other request has finished its attempts; retries
// and give-ups are counted per request in the one counter pair that
// everything on the context shares, a crashed engine's attempts included.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "blockdev/retry.h"
#include "harness/workload_runner.h"
#include "kv/engine.h"
#include "kv/slice.h"
#include "sim/device.h"
#include "sim/fault_injection.h"
#include "sim/profiles.h"
#include "sim/ssd.h"
#include "util/bytes.h"
#include "wal/durable_engine.h"

namespace damkit::sim {
namespace {

constexpr uint64_t kIo = 4096;
constexpr size_t kBatch = 32;

std::vector<IoRequest> batch_of(IoKind kind) {
  std::vector<IoRequest> reqs;
  for (size_t i = 0; i < kBatch; ++i) reqs.push_back({kind, i * kIo, kIo});
  return reqs;
}

class IoContextRetryTest : public testing::Test {
 protected:
  // Runs one batch on a fresh faulty device; `verdicts` collects every
  // verdict the hook saw, in call order.
  Status run(const FaultConfig& faults, IoKind kind, uint32_t max_attempts,
             std::vector<Status>* verdicts = nullptr) {
    reset(faults, max_attempts);
    reqs_ = batch_of(kind);
    const std::vector<uint8_t> payload(kIo, 0x5a);
    landed_.assign(kBatch, false);
    const auto hook = [&](size_t i, const Status& verdict) {
      if (verdicts != nullptr) verdicts->push_back(verdict);
      if (kind == IoKind::kWrite) {
        dev_->settle_write(reqs_[i].offset, payload, verdict);
      }
      if (verdict.ok()) landed_[i] = true;
      return Status();
    };
    return io_->submit_batch_checked(reqs_, hook);
  }

  // A fresh device (inner timing model included) and clock.
  void reset(const FaultConfig& faults, uint32_t max_attempts = 3) {
    io_.reset();
    dev_.reset();
    inner_ = std::make_unique<SsdDevice>(testbed_ssd_profile());
    dev_ = std::make_unique<FaultInjectingDevice>(*inner_, faults);
    io_ = std::make_unique<IoContext>(*dev_);
    io_->set_retry_policy({.max_attempts = max_attempts});
  }

  const FaultStats& faults() const { return dev_->fault_stats(); }
  const blockdev::RetryCounters& counters() const {
    return io_->retry_counters();
  }

  std::unique_ptr<SsdDevice> inner_;
  std::unique_ptr<FaultInjectingDevice> dev_;
  std::unique_ptr<IoContext> io_;
  std::vector<IoRequest> reqs_;
  std::vector<bool> landed_;
};

using BatchRetryTest = IoContextRetryTest;

TEST_F(BatchRetryTest, ResubmitsOnlyFailedRequests) {
  FaultConfig cfg;
  cfg.seed = 7;
  cfg.write_error_rate = 0.3;
  const Status s = run(cfg, IoKind::kWrite, 20);
  ASSERT_TRUE(s.ok()) << s.to_string();
  EXPECT_GT(counters().retries, 0u);
  EXPECT_EQ(counters().give_ups, 0u);
  // Each retry re-submits exactly one request: a whole-batch resubmission
  // would show up as extra checked writes.
  EXPECT_EQ(faults().checked_writes, kBatch + counters().retries);
  EXPECT_EQ(faults().injected_errors(), counters().retries);
  for (size_t i = 0; i < kBatch; ++i) {
    EXPECT_TRUE(landed_[i]) << i;
    std::vector<uint8_t> back(kIo);
    dev_->read_bytes(reqs_[i].offset, back);
    EXPECT_EQ(back, std::vector<uint8_t>(kIo, 0x5a)) << i;
  }
}

TEST_F(BatchRetryTest, CountsRetriesAndGiveUpsPerRequest) {
  FaultConfig cfg;
  cfg.seed = 3;
  cfg.read_error_rate = 0.5;
  std::vector<Status> verdicts;
  const Status s = run(cfg, IoKind::kRead, 2, &verdicts);
  // Attempt 1 fails some requests; each is retried once, and the ones
  // that fail again are abandoned one by one.
  size_t first_failures = 0;
  for (size_t j = 0; j < kBatch; ++j) first_failures += !verdicts[j].ok();
  ASSERT_GT(first_failures, 0u);
  ASSERT_EQ(verdicts.size(), kBatch + first_failures);
  size_t second_failures = 0;
  for (size_t j = kBatch; j < verdicts.size(); ++j) {
    second_failures += !verdicts[j].ok();
  }
  EXPECT_EQ(counters().retries, first_failures);
  EXPECT_EQ(counters().give_ups, second_failures);
  EXPECT_EQ(faults().injected_errors(),
            counters().retries + counters().give_ups);
  EXPECT_EQ(faults().checked_reads, kBatch + counters().retries);
  EXPECT_EQ(s.ok(), second_failures == 0);
}

TEST_F(BatchRetryTest, TornWritesRetriedOnlyWhenCorruptionIsRetryable) {
  // A torn write is a retryable kCorruption: every attempt tears, so each
  // request is re-submitted until the policy gives up on it.
  FaultConfig cfg;
  cfg.seed = 5;
  cfg.torn_write_rate = 1.0;
  const Status s = run(cfg, IoKind::kWrite, 3);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_EQ(counters().retries, 2 * kBatch);
  EXPECT_EQ(counters().give_ups, kBatch);
  EXPECT_EQ(faults().checked_writes, 3 * kBatch);
}

TEST_F(BatchRetryTest, FirstGiveUpReturnedAfterOthersFinish) {
  // Two attempts: a read that fails twice gives up, and the rest of the
  // second attempt still runs to its end.
  FaultConfig cfg;
  cfg.seed = 11;
  cfg.read_error_rate = 0.5;
  std::vector<Status> verdicts;
  const Status s = run(cfg, IoKind::kRead, 2, &verdicts);
  ASSERT_GT(counters().give_ups, 0u);
  ASSERT_GT(counters().retries, counters().give_ups);
  // The hook saw every request of both attempts.
  ASSERT_EQ(verdicts.size(), kBatch + counters().retries);
  const Status* first_give_up = nullptr;
  for (size_t j = kBatch; j < verdicts.size(); ++j) {
    if (!verdicts[j].ok()) {
      first_give_up = &verdicts[j];
      break;
    }
  }
  ASSERT_NE(first_give_up, nullptr);
  EXPECT_EQ(s.to_string(), first_give_up->to_string());
  // Every request that did not give up finished its retries and landed.
  size_t landed = 0;
  for (const bool l : landed_) landed += l;
  EXPECT_EQ(landed, kBatch - counters().give_ups);
  EXPECT_EQ(faults().injected_errors(),
            counters().retries + counters().give_ups);
}

TEST_F(BatchRetryTest, SingleAttemptFailsFast) {
  FaultConfig cfg;
  cfg.seed = 13;
  cfg.read_error_rate = 0.5;
  const Status s = run(cfg, IoKind::kRead, 1);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(counters().retries, 0u);
  EXPECT_EQ(counters().give_ups, faults().injected_read_errors);
  EXPECT_EQ(faults().checked_reads, kBatch);  // one submission, no backoff
}

TEST_F(BatchRetryTest, HookFailureIsReportedButNotCounted) {
  reset(FaultConfig{});
  reqs_ = batch_of(IoKind::kRead);
  size_t calls = 0;
  const auto hook = [&](size_t i, const Status&) {
    ++calls;
    return i == 3 ? Status::corruption("frame 3 failed to decode") : Status();
  };
  const Status s = io_->submit_batch_checked(reqs_, hook);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_EQ(calls, kBatch);  // the batch still finished
  EXPECT_EQ(counters().retries, 0u);
  EXPECT_EQ(counters().give_ups, 0u);
}

TEST_F(IoContextRetryTest, TransientReadRetriedOnceWithBackoff) {
  // Seed 3's first read draw fails and its second succeeds.
  FaultConfig cfg;
  cfg.seed = 3;
  cfg.read_error_rate = 0.5;
  reset(cfg);
  std::vector<uint8_t> buf(kIo);
  ASSERT_TRUE(io_->read_checked(0, buf).ok());
  ASSERT_EQ(faults().injected_read_errors, 1u);
  EXPECT_EQ(faults().checked_reads, 2u);
  EXPECT_EQ(counters().retries, 1u);
  EXPECT_EQ(counters().give_ups, 0u);
  // Both attempts find the device idle, so each costs one plain read;
  // the backoff between them is on the clock too.
  SsdDevice plain(testbed_ssd_profile());
  IoContext plain_io(plain);
  ASSERT_TRUE(plain_io.read_checked(0, buf).ok());
  EXPECT_EQ(io_->now(), 2 * plain_io.now() + blockdev::kBackoffNs);
}

TEST_F(IoContextRetryTest, TornWriteGivenUpAfterMaxAttempts) {
  FaultConfig cfg;
  cfg.seed = 17;
  cfg.torn_write_rate = 1.0;
  reset(cfg, /*max_attempts=*/4);
  const std::vector<uint8_t> data(kIo, 0x5a);
  EXPECT_EQ(io_->write_checked(0, data).code(), StatusCode::kCorruption);
  EXPECT_EQ(faults().checked_writes, 4u);
  EXPECT_EQ(counters().retries, 3u);
  EXPECT_EQ(counters().give_ups, 1u);
  // Backoffs of 50, 100 and 200 µs separate the four attempts.
  EXPECT_GE(io_->now(), 7 * blockdev::kBackoffNs);
}

TEST_F(IoContextRetryTest, ScalarAndBatchShareThePolicyAndCounters) {
  FaultConfig cfg;
  cfg.seed = 19;
  cfg.read_error_rate = 1.0;  // every attempt fails
  reset(cfg, /*max_attempts=*/2);
  std::vector<uint8_t> buf(kIo);
  EXPECT_EQ(io_->read_checked(0, buf).code(), StatusCode::kUnavailable);
  EXPECT_EQ(counters().retries, 1u);
  EXPECT_EQ(counters().give_ups, 1u);
  reqs_ = batch_of(IoKind::kRead);
  const auto ignore = [](size_t, const Status&) { return Status(); };
  EXPECT_EQ(io_->submit_batch_checked(reqs_, ignore).code(),
            StatusCode::kUnavailable);
  // The batch ran under the same two-attempt policy and added to the
  // same counters.
  EXPECT_EQ(faults().checked_reads, 2 + 2 * kBatch);
  EXPECT_EQ(counters().retries, 1 + kBatch);
  EXPECT_EQ(counters().give_ups, 1 + kBatch);
}

TEST_F(IoContextRetryTest, CountersCoverACrashedEngine) {
  // A durable B-tree faults and then crashes; its attempts against the
  // dead device count on the context, which the recovered engine reports:
  // every failed attempt was retried or given up exactly once.
  FaultConfig cfg;
  cfg.seed = 23;
  cfg.read_error_rate = 0.02;
  cfg.write_error_rate = 0.02;
  cfg.torn_write_rate = 0.01;
  reset(cfg);
  kv::EngineConfig engine_cfg;
  engine_cfg.btree.node_bytes = 16 * kKiB;
  engine_cfg.btree.cache_bytes = 64 * kKiB;
  const auto make_inner = [&] {
    return kv::make_engine(kv::EngineKind::kBTree, *dev_, *io_, engine_cfg);
  };
  const wal::DurabilityConfig durability =
      wal::default_durability_config(dev_->capacity_bytes());
  auto engine = std::make_unique<wal::DurableEngine>(make_inner(), *dev_, *io_,
                                                     durability);
  dev_->crash_after(300);
  for (uint64_t i = 0; i < 100000 && !dev_->crashed(); ++i) {
    (void)engine->try_put(kv::encode_key(i), kv::make_value(i, 100));
  }
  ASSERT_TRUE(dev_->crashed());
  engine->abandon();
  engine.reset();
  dev_->reboot();

  auto recovered =
      wal::DurableEngine::recover(make_inner, *dev_, *io_, durability, nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  ASSERT_TRUE(harness::checkpoint_with_retries(**recovered, 100).ok());
  const blockdev::RetryCounters c = (*recovered)->retry_counters();
  const FaultStats& f = faults();
  EXPECT_GT(f.injected_errors(), 0u);
  EXPECT_EQ(f.crashes, 1u);
  EXPECT_GT(f.post_crash_rejections, 0u);
  EXPECT_EQ(c.retries + c.give_ups,
            f.injected_errors() + f.crashes + f.post_crash_rejections);
}

using IoContextRetryDeathTest = IoContextRetryTest;

TEST_F(IoContextRetryDeathTest, HookIssuingIoThroughItsContextAborts) {
  // The batch's working storage belongs to the context, so a hook may not
  // start another IO on it.
  reset(FaultConfig{});
  reqs_ = batch_of(IoKind::kRead);
  std::vector<uint8_t> buf(kIo);
  const auto reads = [&](size_t, const Status&) {
    return io_->read_checked(0, buf);
  };
  EXPECT_DEATH((void)io_->submit_batch_checked(reqs_, reads), "batch hook");
}

}  // namespace
}  // namespace damkit::sim
