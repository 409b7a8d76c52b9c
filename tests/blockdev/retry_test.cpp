// with_batch_retries on a seeded fault-injecting SSD: only the requests
// that failed are re-submitted, retries and give-ups are counted per
// request, and the first give-up surfaces once every other request has
// finished its attempts.
#include "blockdev/retry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/fault_injection.h"
#include "sim/profiles.h"
#include "sim/ssd.h"
#include "util/bytes.h"

namespace damkit::blockdev {
namespace {

constexpr uint64_t kIo = 4096;
constexpr size_t kBatch = 32;

std::vector<sim::IoRequest> batch_of(sim::IoKind kind) {
  std::vector<sim::IoRequest> reqs;
  for (size_t i = 0; i < kBatch; ++i) reqs.push_back({kind, i * kIo, kIo});
  return reqs;
}

class BatchRetryTest : public testing::Test {
 protected:
  // Runs one helper call on a fresh faulty device; `verdicts` collects
  // every verdict the hook saw, in call order.
  Status run(const sim::FaultConfig& faults, sim::IoKind kind,
             uint32_t max_attempts, bool retry_corruption,
             std::vector<Status>* verdicts = nullptr) {
    reset(faults);
    reqs_ = batch_of(kind);
    RetryPolicy policy;
    policy.max_attempts = max_attempts;
    const std::vector<uint8_t> payload(kIo, 0x5a);
    landed_.assign(kBatch, false);
    return with_batch_retries(
        *io_, policy, &counters_, retry_corruption, reqs_, scratch_,
        [&](size_t i, const Status& verdict) {
          if (verdicts != nullptr) verdicts->push_back(verdict);
          if (kind == sim::IoKind::kWrite) {
            dev_->settle_write(reqs_[i].offset, payload, verdict);
          }
          if (verdict.ok()) landed_[i] = true;
          return Status();
        });
  }

  // A fresh device (inner timing model included) and clock.
  void reset(const sim::FaultConfig& faults) {
    io_.reset();
    dev_.reset();
    inner_ = std::make_unique<sim::SsdDevice>(sim::testbed_ssd_profile());
    dev_ = std::make_unique<sim::FaultInjectingDevice>(*inner_, faults);
    io_ = std::make_unique<sim::IoContext>(*dev_);
  }

  const sim::FaultStats& faults() const { return dev_->fault_stats(); }

  std::unique_ptr<sim::SsdDevice> inner_;
  std::unique_ptr<sim::FaultInjectingDevice> dev_;
  std::unique_ptr<sim::IoContext> io_;
  std::vector<sim::IoRequest> reqs_;
  BatchRetryScratch scratch_;
  RetryCounters counters_;
  std::vector<bool> landed_;
};

TEST_F(BatchRetryTest, ResubmitsOnlyFailedRequests) {
  sim::FaultConfig cfg;
  cfg.seed = 7;
  cfg.write_error_rate = 0.3;
  const Status s = run(cfg, sim::IoKind::kWrite, 20,
                       /*retry_corruption=*/false);
  ASSERT_TRUE(s.ok()) << s.to_string();
  EXPECT_GT(counters_.retries, 0u);
  EXPECT_EQ(counters_.give_ups, 0u);
  // Each retry re-submits exactly one request: a whole-batch resubmission
  // would show up as extra checked writes.
  EXPECT_EQ(faults().checked_writes, kBatch + counters_.retries);
  EXPECT_EQ(faults().injected_errors(), counters_.retries);
  for (size_t i = 0; i < kBatch; ++i) {
    EXPECT_TRUE(landed_[i]) << i;
    std::vector<uint8_t> back(kIo);
    dev_->read_bytes(reqs_[i].offset, back);
    EXPECT_EQ(back, std::vector<uint8_t>(kIo, 0x5a)) << i;
  }
}

TEST_F(BatchRetryTest, CountsRetriesAndGiveUpsPerRequest) {
  sim::FaultConfig cfg;
  cfg.seed = 3;
  cfg.read_error_rate = 0.5;
  std::vector<Status> verdicts;
  const Status s = run(cfg, sim::IoKind::kRead, 2,
                       /*retry_corruption=*/false, &verdicts);
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
  EXPECT_EQ(counters_.retries, first_failures);
  EXPECT_EQ(counters_.give_ups, second_failures);
  EXPECT_EQ(faults().injected_errors(),
            counters_.retries + counters_.give_ups);
  EXPECT_EQ(faults().checked_reads, kBatch + counters_.retries);
  EXPECT_EQ(s.ok(), second_failures == 0);
}

TEST_F(BatchRetryTest, TornWritesRetriedOnlyWhenCorruptionIsRetryable) {
  sim::FaultConfig cfg;
  cfg.seed = 5;
  cfg.torn_write_rate = 1.0;  // every attempt tears

  const Status no_retry = run(cfg, sim::IoKind::kWrite, 3,
                              /*retry_corruption=*/false);
  EXPECT_EQ(no_retry.code(), StatusCode::kCorruption);
  EXPECT_EQ(counters_.retries, 0u);
  EXPECT_EQ(counters_.give_ups, kBatch);
  EXPECT_EQ(faults().checked_writes, kBatch);

  counters_ = RetryCounters{};
  const Status retried = run(cfg, sim::IoKind::kWrite, 3,
                             /*retry_corruption=*/true);
  EXPECT_EQ(retried.code(), StatusCode::kCorruption);
  EXPECT_EQ(counters_.retries, 2 * kBatch);
  EXPECT_EQ(counters_.give_ups, kBatch);
  EXPECT_EQ(faults().checked_writes, 3 * kBatch);
}

TEST_F(BatchRetryTest, FirstGiveUpReturnedAfterOthersFinish) {
  // Torn writes are not retryable here, so they give up at once; the
  // transient errors in the same batch are retried until they land.
  sim::FaultConfig cfg;
  cfg.seed = 11;
  cfg.write_error_rate = 0.3;
  cfg.torn_write_rate = 0.3;
  std::vector<Status> verdicts;
  const Status s = run(cfg, sim::IoKind::kWrite, 20,
                       /*retry_corruption=*/false, &verdicts);
  ASSERT_GT(counters_.give_ups, 0u);
  ASSERT_GT(counters_.retries, 0u);
  const Status* first_torn = nullptr;
  for (const Status& v : verdicts) {
    if (v.code() == StatusCode::kCorruption) {
      first_torn = &v;
      break;
    }
  }
  ASSERT_NE(first_torn, nullptr);
  EXPECT_EQ(s.to_string(), first_torn->to_string());
  // Every request that did not give up finished its retries and landed.
  size_t landed = 0;
  for (const bool l : landed_) landed += l;
  EXPECT_EQ(landed, kBatch - counters_.give_ups);
  EXPECT_EQ(faults().injected_errors(),
            counters_.retries + counters_.give_ups);
}

TEST_F(BatchRetryTest, SingleAttemptFailsFast) {
  sim::FaultConfig cfg;
  cfg.seed = 13;
  cfg.read_error_rate = 0.5;
  const Status s = run(cfg, sim::IoKind::kRead, 1,
                       /*retry_corruption=*/false);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(counters_.retries, 0u);
  EXPECT_EQ(counters_.give_ups, faults().injected_read_errors);
  EXPECT_EQ(faults().checked_reads, kBatch);  // one submission, no backoff
}

TEST_F(BatchRetryTest, HookFailureIsReportedButNotCounted) {
  reset(sim::FaultConfig{});
  reqs_ = batch_of(sim::IoKind::kRead);
  size_t calls = 0;
  const Status s = with_batch_retries(
      *io_, RetryPolicy{}, &counters_, /*retry_corruption=*/false, reqs_,
      scratch_, [&](size_t i, const Status&) {
        ++calls;
        return i == 3 ? Status::corruption("frame 3 failed to decode")
                      : Status();
      });
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_EQ(calls, kBatch);  // the batch still finished
  EXPECT_EQ(counters_.retries, 0u);
  EXPECT_EQ(counters_.give_ups, 0u);
}

}  // namespace
}  // namespace damkit::blockdev
