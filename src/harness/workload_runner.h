// WorkloadRunner: the one generic workload driver. Benches, the CLI,
// integration tests, and examples all drive any kv::Dictionary — a bare
// tree from kv::make_engine or a ShardedEngine composition — through these
// loops instead of carrying per-tree copies of setup/drive/teardown code.
//
// Two entry points, by what the caller needs reproduced:
//   - run(): OpGenerator-driven mixed workload with a result digest, for
//     cross-engine differential comparison and generic driving. Its
//     k-client form, run_concurrent(), is the same op loop with the
//     device's IO trace recorded and re-timed by serve::replay.
//   - run_fault_soak(): the fault-injection soak from the integration
//     tests — fallible ops against a reference model with old-or-new
//     uncertainty for failed mutations, checkpoint-until-clean, then a
//     full verification sweep. Violations are reported as strings so the
//     harness stays gtest-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "kv/dictionary.h"
#include "kv/op_apply.h"
#include "kv/workload.h"
#include "serve/replay.h"
#include "sim/device.h"
#include "sim/trace.h"
#include "stats/metrics.h"

namespace damkit::harness {

// ---------------------------------------------------------------------------
// Generic OpGenerator-driven run.
// ---------------------------------------------------------------------------

struct WorkloadRunOptions {
  /// Non-OK ops count as failed instead of CHECK-aborting, and the final
  /// write-back is checkpoint() with retries instead of flush().
  bool fallible = false;
  /// Write back all dirty state after the op stream (charged to the run).
  bool flush_at_end = true;
};

/// run()'s per-type op counters (kv::ApplyCounters), digest and time.
struct WorkloadRunResult : kv::ApplyCounters {
  /// Hash of every observed read result (get presence + value bytes,
  /// scan pairs). Two engines given the same spec and op count agree on
  /// this digest iff they returned identical data.
  uint64_t digest = kv::kFnvOffsetBasis;
  sim::SimTime sim_elapsed = 0;

  uint64_t ops() const { return puts + gets + erases + scans + upserts; }
};

/// run_concurrent(): the run() options plus the replay's (clients,
/// inflight, replay device, dispatch lanes). Without a replay device the
/// concurrent timeline equals the serial one.
struct ConcurrentRunOptions : WorkloadRunOptions, serve::ReplayConfig {};

/// run_concurrent(): the replayed timeline plus what run() would report
/// for the same (spec, ops) — same counters, same digest, same serial
/// simulated time.
struct ConcurrentRunResult : serve::ReplayTimeline {
  WorkloadRunResult base;
  /// Serial op-phase time over the concurrent makespan (the end-of-run
  /// write-back is serial in both, so it is left out of the ratio).
  double speedup = 1.0;
  /// Ops per simulated second under concurrency.
  double throughput_ops_per_sec = 0.0;
  /// The serving device's IOs over the op stream, as replayed (empty
  /// without a replay device).
  sim::IoTrace trace;

  /// Export "<prefix>ops", failed ops, batch counters, serial/concurrent
  /// seconds, speedup, throughput, lane depth and per-lane IO counts, and
  /// "<prefix>latency_ns" (+ .p50/.p99/.p999 via
  /// stats::export_histogram_summary).
  void export_metrics(stats::MetricsRegistry& reg,
                      std::string_view prefix) const;
};

class WorkloadRunner {
 public:
  WorkloadRunner(kv::Dictionary& dict, sim::IoContext& io)
      : dict_(&dict), io_(&io) {}

  /// Bulk-load `items` sorted pairs from kv::bulk_item(i, spec).
  void bulk_load(uint64_t items, const kv::WorkloadSpec& spec);

  /// Drive `ops` operations drawn from `spec`'s distribution and mix.
  /// Deterministic for a given (spec, ops): engine choice never changes
  /// which ops run or what values they write.
  WorkloadRunResult run(const kv::WorkloadSpec& spec, uint64_t ops,
                        const WorkloadRunOptions& options = {});

  /// Serve the same op stream to k concurrent clients: run()'s loop
  /// records the serving device's IO trace and where each op's records
  /// end, then serve::replay re-times them on a fresh one. Digest and
  /// counters equal run()'s by construction; the concurrent makespan,
  /// speedup, and latency tails are added on top.
  ConcurrentRunResult run_concurrent(const kv::WorkloadSpec& spec,
                                     uint64_t ops,
                                     const ConcurrentRunOptions& options = {});

  kv::Dictionary& dictionary() { return *dict_; }

 private:
  /// The op loop: ops [0, ops) of `spec`'s stream, in order. With
  /// `trace`, the device's IOs are recorded into it and op i's records
  /// end at (*op_end)[i].
  WorkloadRunResult apply_ops(const kv::WorkloadSpec& spec, uint64_t ops,
                              bool fallible, sim::IoTrace* trace,
                              std::vector<size_t>* op_end);
  /// The end-of-run write-back, added to result->sim_elapsed.
  void write_back(const WorkloadRunOptions& options,
                  WorkloadRunResult* result);

  kv::Dictionary* dict_;
  sim::IoContext* io_;
};

/// checkpoint() until OK, at most `max_attempts` extra draws; returns the
/// last status (OK iff the checkpoint landed).
Status checkpoint_with_retries(kv::Dictionary& dict, int max_attempts);

// ---------------------------------------------------------------------------
// Fault soak (integration tests).
// ---------------------------------------------------------------------------

struct SoakSpec {
  uint64_t ops = 4000;
  uint64_t key_space = 4000;
  size_t value_bytes = 100;
  uint64_t seed = 0;
};

struct SoakReport {
  uint64_t ok_ops = 0;
  uint64_t failed_ops = 0;
  bool checkpoint_ok = false;
  /// Human-readable contract violations (phantom/lost/mismatched keys,
  /// checkpoint or verify failures). Empty on a clean soak.
  std::vector<std::string> violations;
};

/// Mixed put/erase/get soak through the try_* APIs against a reference
/// model. Failed mutations mark their key "uncertain" (old-or-new state is
/// both legal); everything that reported success must be durable, verified
/// by a final sweep after checkpoint-until-clean.
SoakReport run_fault_soak(kv::Dictionary& dict, const SoakSpec& spec);

}  // namespace damkit::harness
