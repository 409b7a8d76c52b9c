// Closed-loop multi-client workload driver (discrete-event).
//
// Reproduces the paper's §4.1 experiment harness: p OS threads each issue
// one outstanding IO at a time against the device; a thread's next IO is
// issued the moment its previous one completes. The driver is a
// single-threaded discrete-event simulation — a min-heap over per-client
// next-issue times guarantees the device sees submissions in time order —
// so results are exactly reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/device.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace damkit::sim {

struct ClosedLoopConfig {
  int clients = 1;
  uint64_t ios_per_client = 1024;
  uint64_t io_bytes = 64 * 1024;
  IoKind kind = IoKind::kRead;
  uint64_t seed = 1;
};

struct ClosedLoopResult {
  SimTime makespan = 0;          // completion time of the last IO
  Histogram latency;             // per-IO latency distribution (ns)
  uint64_t total_ios = 0;
  uint64_t total_bytes = 0;

  /// Aggregate throughput in bytes per simulated second.
  double throughput_bps() const {
    return makespan == 0 ? 0.0
                         : static_cast<double>(total_bytes) /
                               to_seconds(makespan);
  }
};

/// Runs the closed loop with uniformly random offsets, aligned to
/// io_bytes, over the device's full LBA range, exactly as §4 describes.
ClosedLoopResult run_closed_loop(Device& dev, const ClosedLoopConfig& config);

/// Generalized form: `next_offset(client, rng)` supplies each IO's offset,
/// enabling sequential or skewed access patterns.
ClosedLoopResult run_closed_loop(
    Device& dev, const ClosedLoopConfig& config,
    const std::function<uint64_t(int client, Rng& rng)>& next_offset);

}  // namespace damkit::sim
