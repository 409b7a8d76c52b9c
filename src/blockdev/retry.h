// Retry-with-backoff for transient device faults: the policy and the
// counters that sim::IoContext applies to every checked IO it issues.
//
// A RetryPolicy bounds how many times a fallible IO is re-attempted and
// how much *simulated* time each backoff costs — retries are not free:
// every re-attempt occupies the device again and every backoff advances
// the caller's IoContext clock, so fault handling shows up honestly in
// measured simulated seconds. The loops themselves live in IoContext
// (sim/device.h), which includes this header.
#pragma once

#include <cstdint>

namespace damkit::blockdev {

/// Simulated nanoseconds waited before the first re-attempt (50 µs); each
/// later wait is kBackoffMultiplier times the previous one.
inline constexpr uint64_t kBackoffNs = 50 * 1000;
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

}  // namespace damkit::blockdev
