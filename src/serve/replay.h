// Concurrent replay: k clients' recorded IOs re-timed on one device.
//
// The simulator separates timing from data (see sim/device.h), and every
// engine's data path is time-independent — what an op reads and writes
// never depends on the simulated clock. Serving k clients therefore splits
// in two:
//
//   Record. harness::WorkloadRunner::run_concurrent applies the op stream
//   in order through its one op loop, exactly as a single-client run,
//   records the serving device's IoTrace, and notes where each op's
//   records end. Digest, counters and fault/retry accounting are the
//   single-client run's by construction.
//
//   Replay (this file). A discrete-event loop re-times the ops' records on
//   a fresh device with the same timing model. Op i belongs to client
//   i mod k; each client keeps up to `inflight` of its ops open (admission
//   control), every runnable stage across all clients at the current
//   virtual instant is routed through per-lane dispatch queues (lane = die
//   or shard) and issued as one cross-client Device::submit_batch, and op
//   completions admit their client's next op. The result is the concurrent
//   makespan and the per-op latency distribution — the quantities the PDAM
//   predicts scale as Ω(k / log_{PB/k} N) until k reaches the device
//   parallelism P.
//
// Stages: a maximal run of an op's records that share `submit` is one
// stage; its IOs issue together and it completes at their max finish, and
// the op's stages issue in order. This is exact under the IoContext
// discipline — batch members are submitted at the same instant, while a
// dependent IO is only issued after its predecessor completes, and every
// device model charges positive service time, so dependent submissions
// carry strictly later clocks.
//
// replay() sees only trace records and timing: no Dictionary, no op
// generator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "sim/device.h"
#include "sim/trace.h"
#include "util/histogram.h"

namespace damkit::serve {

struct ReplayConfig {
  /// Concurrent clients (k). 1 reproduces the sequential runner.
  uint64_t clients = 1;
  /// Admission control: ops a client may have open at once (d >= 1).
  uint64_t inflight = 4;

  /// Builds the replay device: same timing model as the serving device,
  /// fresh queue/mechanical state, no fault hook (faults already shaped
  /// the recorded IOs — retries appear as extra IOs). replay() requires
  /// it; run_concurrent without one reports the serial timeline.
  std::function<std::unique_ptr<sim::Device>()> replay_device_factory;

  /// Dispatch-lane map for replay: byte offset -> lane in [0, lanes).
  /// Lane = SSD die (SsdConfig::die_of) or shard (offset / stride).
  /// Default: a single lane.
  std::function<size_t(uint64_t)> lane_of;
  size_t lanes = 1;
};

struct ReplayTimeline {
  /// Replayed k-client makespan on the fresh device.
  sim::SimTime concurrent_elapsed = 0;
  /// Per-op latency (ns, admission to completion) under concurrency.
  Histogram latency;
  /// Cross-client batches formed during replay.
  uint64_t batches = 0;
  uint64_t batch_ios = 0;
  /// IOs dispatched per lane (length = config lanes).
  std::vector<uint64_t> lane_ios;
  /// High-water mark of any single lane's queue depth within a batch.
  uint64_t max_lane_depth = 0;
};

/// Re-time the ops recorded in `records` under `config`. Op i's IOs are
/// records[op_end[i-1], op_end[i]) (op 0 starts at 0), so `op_end` must be
/// nondecreasing and end at most at records.size(); op i belongs to client
/// i mod k. Deterministic for a given (records, op_end, config).
ReplayTimeline replay(std::span<const sim::TraceRecord> records,
                      std::span<const size_t> op_end,
                      const ReplayConfig& config);

}  // namespace damkit::serve
