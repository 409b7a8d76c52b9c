// Retry-with-backoff for transient device faults.
//
// A RetryPolicy bounds how many times a fallible IO is re-attempted and
// how much *simulated* time each backoff costs — retries are not free:
// every re-attempt occupies the device again and every backoff advances
// the caller's IoContext clock, so fault handling shows up honestly in
// measured simulated seconds.
//
// with_retries() drives one IO; with_batch_retries() drives a batch and
// re-submits only the requests that failed, so both count exactly one
// retry per re-attempted request and one give-up per abandoned one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "sim/device.h"
#include "util/status.h"

namespace damkit::blockdev {

/// Simulated wait before the first re-attempt; each later wait is
/// kBackoffMultiplier times the previous one.
inline constexpr sim::SimTime kBackoffNs = 50 * sim::kNsPerUs;
inline constexpr double kBackoffMultiplier = 2.0;

/// `max_attempts` counts total tries (1 = fail fast, no retry). Attempt
/// k+1 is preceded by a simulated wait of
/// kBackoffNs * kBackoffMultiplier^(k-1).
struct RetryPolicy {
  uint32_t max_attempts = 3;
};

struct RetryCounters {
  uint64_t retries = 0;   // individual re-attempts after a retryable failure
  uint64_t give_ups = 0;  // requests abandoned with a non-OK status
};

/// Transient (kUnavailable) failures are always retryable; kCorruption is
/// retryable only when `retry_corruption` is set (a torn *write* is
/// repaired by rewriting the extent in full; a corrupt read has nothing to
/// retry into). Any other code surfaces immediately.
inline bool is_retryable(const Status& s, bool retry_corruption) {
  return s.code() == StatusCode::kUnavailable ||
         (retry_corruption && s.code() == StatusCode::kCorruption);
}

/// Run `attempt` until it returns OK or the policy is exhausted, charging
/// each inter-attempt backoff to `io`.
template <typename Fn>
Status with_retries(sim::IoContext& io, const RetryPolicy& policy,
                    RetryCounters* counters, bool retry_corruption,
                    Fn&& attempt) {
  const uint32_t max_attempts = std::max<uint32_t>(policy.max_attempts, 1);
  double backoff = static_cast<double>(kBackoffNs);
  Status s = attempt();
  for (uint32_t tries = 1; !s.ok(); ++tries) {
    if (!is_retryable(s, retry_corruption) || tries >= max_attempts) {
      if (counters != nullptr) ++counters->give_ups;
      return s;
    }
    io.spend(static_cast<sim::SimTime>(backoff));
    backoff *= kBackoffMultiplier;
    if (counters != nullptr) ++counters->retries;
    s = attempt();
  }
  return s;
}

/// Caller-owned working storage for with_batch_retries, reused across
/// calls so hot paths allocate nothing per batch.
struct BatchRetryScratch {
  std::vector<size_t> pending;  // request indices submitted this attempt
  std::vector<size_t> failed;   // ... and those to re-submit next attempt
  std::vector<sim::IoRequest> batch;
  std::vector<sim::IoCompletion> completions;
  std::vector<Status> per_io;
};

/// Batched counterpart of with_retries. Each attempt submits the pending
/// requests as one IoContext::submit_batch_checked, then calls
/// `on_verdict(i, verdict)` for each of them in batch order (i indexes
/// `reqs`). The hook moves request i's payload when `verdict` is OK and
/// routes a failed write's payload to Device::note_failed_write otherwise
/// (Device::settle_write does both for a write). Its return matters only
/// for an OK verdict: a non-OK return there (e.g. a decode failure) is
/// reported but neither retried nor counted. Only the retryable failures
/// are re-submitted, after one backoff per attempt, counting one retry per
/// re-submitted request and one give-up per abandoned request. Once
/// nothing is left to retry, returns the first give-up (or hook failure).
/// A non-OK batch submission (an invalid request) returns at once with no
/// time charged.
template <typename OnVerdict>
Status with_batch_retries(sim::IoContext& io, const RetryPolicy& policy,
                          RetryCounters* counters, bool retry_corruption,
                          std::span<const sim::IoRequest> reqs,
                          BatchRetryScratch& scratch, OnVerdict&& on_verdict) {
  const uint32_t max_attempts = std::max<uint32_t>(policy.max_attempts, 1);
  double backoff = static_cast<double>(kBackoffNs);
  std::vector<size_t>& pending = scratch.pending;
  pending.resize(reqs.size());
  std::iota(pending.begin(), pending.end(), size_t{0});
  std::span<const sim::IoRequest> batch = reqs;
  Status first;
  for (uint32_t attempt = 1; !pending.empty(); ++attempt) {
    DAMKIT_RETURN_IF_ERROR(
        io.submit_batch_checked(batch, &scratch.completions, &scratch.per_io));
    scratch.failed.clear();
    for (size_t j = 0; j < pending.size(); ++j) {
      const size_t i = pending[j];
      const Status& verdict = scratch.per_io[j];
      Status done = on_verdict(i, verdict);
      if (verdict.ok()) {
        if (!done.ok() && first.ok()) first = std::move(done);
      } else if (is_retryable(verdict, retry_corruption) &&
                 attempt < max_attempts) {
        scratch.failed.push_back(i);
      } else {
        if (counters != nullptr) ++counters->give_ups;
        if (first.ok()) first = verdict;
      }
    }
    if (scratch.failed.empty()) break;
    io.spend(static_cast<sim::SimTime>(backoff));
    backoff *= kBackoffMultiplier;
    if (counters != nullptr) counters->retries += scratch.failed.size();
    std::swap(pending, scratch.failed);
    scratch.batch.clear();
    for (const size_t i : pending) scratch.batch.push_back(reqs[i]);
    batch = scratch.batch;
  }
  return first;
}

}  // namespace damkit::blockdev
