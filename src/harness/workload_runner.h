// WorkloadRunner: the one generic workload driver. Benches, the CLI,
// integration tests, and examples all drive any kv::Dictionary — a bare
// tree from EngineFactory or a ShardedEngine composition — through these
// loops instead of carrying per-tree copies of setup/drive/teardown code.
//
// Three entry points, by what the caller needs reproduced:
//   - run(): OpGenerator-driven mixed workload with a result digest, for
//     cross-engine differential comparison and generic driving.
//   - run_put_get(): the fixed put/get/scan loop the benches and the CLI
//     have always used, byte-for-byte (same RNG draws, same key strings),
//     so pre-refactor simulated times are preserved exactly.
//   - run_fault_soak(): the fault-injection soak from the integration
//     tests — fallible ops against a reference model with old-or-new
//     uncertainty for failed mutations, checkpoint-until-clean, then a
//     full verification sweep. Violations are reported as strings so the
//     harness stays gtest-free.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "kv/dictionary.h"
#include "kv/workload.h"
#include "serve/scheduler.h"
#include "sim/device.h"
#include "util/histogram.h"

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

struct WorkloadRunResult {
  uint64_t puts = 0, gets = 0, erases = 0, scans = 0, upserts = 0;
  uint64_t get_hits = 0;
  uint64_t failed_ops = 0;
  /// FNV-1a over every observed read result (get presence + value bytes,
  /// scan pairs). Two engines given the same spec and op count agree on
  /// this digest iff they returned identical data.
  uint64_t digest = 14695981039346656037ULL;
  sim::SimTime sim_elapsed = 0;
};

/// run_concurrent(): the serving-layer entry point. The base fields mirror
/// run() exactly — same counters, same digest, same serial simulated time
/// — plus the concurrent timeline computed by serve::Scheduler.
struct ConcurrentRunOptions {
  /// Concurrent clients (the CLI/bench --clients flag).
  uint64_t clients = 1;
  /// Per-client admission depth (--inflight).
  uint64_t inflight = 4;
  bool fallible = false;
  bool flush_at_end = true;
  /// Fresh same-timing device for the concurrent replay; when absent the
  /// concurrent timeline equals the serial one (see serve::ServeConfig).
  std::function<std::unique_ptr<sim::Device>()> replay_device_factory;
  /// Dispatch-lane map (die/shard) for replay; default single lane.
  std::function<size_t(uint64_t)> lane_of;
  size_t lanes = 1;
};

struct ConcurrentRunResult {
  /// Identical to what run() would report for the same (spec, ops).
  WorkloadRunResult base;
  sim::SimTime concurrent_elapsed = 0;
  double speedup = 1.0;
  double throughput_ops_per_sec = 0.0;
  Histogram latency;  // per-op ns under concurrency
  uint64_t batches = 0;
  uint64_t batch_ios = 0;
  std::vector<uint64_t> lane_ios;
  uint64_t max_lane_depth = 0;
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

  /// Serve the same op stream to k concurrent clients (see
  /// serve::Scheduler). Digest and counters equal run()'s by construction;
  /// the concurrent makespan, speedup, and latency tails are added on top.
  ConcurrentRunResult run_concurrent(const kv::WorkloadSpec& spec,
                                     uint64_t ops,
                                     const ConcurrentRunOptions& options = {});

  kv::Dictionary& dictionary() { return *dict_; }

 private:
  kv::Dictionary* dict_;
  sim::IoContext* io_;
};

// ---------------------------------------------------------------------------
// The legacy fixed loop (bench_smoke, damkit_cli) — byte-exact.
// ---------------------------------------------------------------------------

struct PutGetSpec {
  uint64_t puts = 0;
  uint64_t gets = 0;
  /// Key ids are rng.next() % key_modulus, matching the historical loops.
  uint64_t key_modulus = 1;
  size_t value_bytes = 100;
  uint64_t seed = 0;
  /// id → key string (each caller keeps its exact historical format).
  std::function<std::string(uint64_t)> key_of;
  /// Scans issued after the gets, each from key_of(0), this many pairs.
  uint64_t scans = 0;
  size_t scan_limit = 0;
  /// Count non-OK ops instead of CHECK-failing (the CLI's fault-injection
  /// path, where surfaced give-ups are expected).
  bool tolerate_failures = false;
};

struct PutGetResult {
  uint64_t failed_ops = 0;
  uint64_t get_hits = 0;
};

/// puts × put(key_of(rng.next() % modulus), 'v'*value_bytes), then gets ×
/// get(same draw), then the scans. RNG draw order is identical to the
/// loops this replaces, so simulated time is too.
PutGetResult run_put_get(kv::Dictionary& dict, const PutGetSpec& spec);

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
  int checkpoint_attempts = 200;
  int verify_read_attempts = 200;
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
