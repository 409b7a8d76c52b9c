// Concurrent request scheduler: k clients against one Dictionary.
//
// The simulator separates timing from data (see sim/device.h), and every
// engine's data path is time-independent — what an op reads and writes
// never depends on the simulated clock. The scheduler exploits that with a
// two-phase design, all on the calling thread:
//
//   Data phase. One OpGenerator yields the stream in order; op i belongs
//   to client i mod k, and each op is applied to the real engine through
//   kv::apply_op, exactly as a single-client run would. This produces the
//   digest, the counters, the serial makespan, and (via an IoTrace on the
//   serving device) each op's IO chain: which blocks it touched, batched
//   how, in what dependency order. A k-client run is therefore
//   bit-identical to the single-client reference by construction, and
//   fault injection/retry accounting is untouched.
//
//   Replay phase. A discrete-event loop re-times the recorded chains on a
//   fresh device with the same timing model: each client keeps up to
//   `inflight` of its ops open (admission control), every runnable stage
//   across all clients at the current virtual instant is routed through
//   per-lane dispatch queues (lane = die or shard) and issued as one
//   cross-client Device::submit_batch, and op completions admit their
//   client's next op. The result is the concurrent makespan and the
//   per-op latency distribution — the quantities the PDAM predicts scale
//   as Ω(k / log_{PB/k} N) until k reaches the device parallelism P.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "kv/dictionary.h"
#include "kv/op_apply.h"
#include "kv/workload.h"
#include "serve/io_chain.h"
#include "sim/device.h"
#include "stats/metrics.h"
#include "util/histogram.h"

namespace damkit::serve {

struct ServeConfig {
  /// Concurrent clients (k). 1 reproduces the sequential runner.
  uint64_t clients = 1;
  /// Admission control: ops a client may have open at once (d >= 1).
  uint64_t inflight = 4;
  /// Count failed ops instead of CHECK-aborting (fault-injection runs).
  bool fallible = false;

  /// Builds the replay device: same timing model as the serving device,
  /// fresh queue/mechanical state, no fault hook (faults already shaped
  /// the recorded chains — retries appear as extra IOs). When absent the
  /// replay is skipped and the concurrent timeline equals the serial one.
  std::function<std::unique_ptr<sim::Device>()> replay_device_factory;

  /// Dispatch-lane map for replay: byte offset -> lane in [0, lanes).
  /// Lane = SSD die (SsdConfig::die_of) or shard (offset / stride).
  /// Default: a single lane.
  std::function<size_t(uint64_t)> lane_of;
  size_t lanes = 1;
};

struct ServeResult {
  kv::ApplyCounters counters;
  uint64_t digest = kv::kFnvOffsetBasis;
  uint64_t ops = 0;

  /// Data-phase makespan: the ops applied back to back on the serving
  /// device (identical to a single-client WorkloadRunner::run).
  sim::SimTime serial_elapsed = 0;
  /// Replayed k-client makespan on the fresh device.
  sim::SimTime concurrent_elapsed = 0;
  /// serial / concurrent (>= 1 when concurrency helps).
  double speedup() const;
  /// Ops per simulated second under concurrency.
  double throughput_ops_per_sec() const;

  /// Per-op latency (ns, admission to completion) under concurrency.
  Histogram latency;

  /// Cross-client batches formed during replay.
  uint64_t batches = 0;
  uint64_t batch_ios = 0;
  /// IOs dispatched per lane (length = config lanes).
  std::vector<uint64_t> lane_ios;
  /// High-water mark of any single lane's queue depth within a batch.
  uint64_t max_lane_depth = 0;

  /// Export "<prefix>ops", "<prefix>latency_ns" (+ .p50/.p99/.p999 via
  /// stats::export_histogram_summary), elapsed/speedup gauges, batch
  /// counters, and per-lane IO counts.
  void export_metrics(stats::MetricsRegistry& reg,
                      std::string_view prefix) const;
};

class Scheduler {
 public:
  /// Serves ops against `dict`, charging data-phase time to `io` (the
  /// context the dictionary performs IO through).
  Scheduler(kv::Dictionary& dict, sim::IoContext& io, ServeConfig config);

  /// Drive the first `ops` ops of `spec`'s stream as k clients.
  /// Deterministic for a given (spec, ops, config).
  ServeResult serve(const kv::WorkloadSpec& spec, uint64_t ops);

 private:
  kv::Dictionary* dict_;
  sim::IoContext* io_;
  ServeConfig config_;
};

}  // namespace damkit::serve
