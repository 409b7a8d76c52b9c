// Crash-cycle differential driver: the executable definition of crash
// consistency for any engine behind a wal::DurableEngine.
//
// One cycle = run a seeded workload against a durable engine on a
// fault-injecting device armed to die at the k-th checked IO → abandon
// the dead engine → reboot → recover from device bytes TWICE (the second
// recovery must reproduce the first bit-for-bit — recovery is read-only
// up to the tail seal) → resume the regenerated op stream skipping
// exactly the mutations that survived → flush. The final state digest
// must equal an uncrashed reference run's digest for EVERY crash point k:
// the durable prefix plus the re-driven suffix is the whole stream.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "kv/dictionary.h"
#include "kv/workload.h"
#include "sim/device.h"
#include "wal/durable_engine.h"

namespace damkit::harness {

struct CrashCycleSpec {
  /// Builds a fresh EMPTY inner engine over the given device — called once
  /// for the crashed run and once per recovery.
  std::function<std::unique_ptr<kv::Dictionary>(sim::Device&, sim::IoContext&)>
      make_engine;
  /// Builds the underlying simulated device (reference run, and the inner
  /// device the fault injector wraps in the crashed run). Defaults to
  /// SsdDevice(testbed_ssd_profile()); the crash soak also sweeps
  /// MqSsdDevice — device models change timing, never payload semantics,
  /// so every digest must be identical either way.
  std::function<std::unique_ptr<sim::Device>()> make_device;
  kv::WorkloadSpec workload;
  uint64_t bulk_items = 1500;
  uint64_t ops = 2000;
  /// Checked device IOs after setup (bulk load + snapshot) before the
  /// device dies mid-run; 0 = never crash (clean run, used for probing).
  uint64_t crash_after_ios = 0;
  /// Issue a fallible checkpoint() every N ops during the crashed run
  /// (0 = none) so crash points can land INSIDE a checkpoint.
  uint64_t checkpoint_every_ops = 0;
  /// Seed for the fault injector (deterministic torn-write placement).
  uint64_t fault_seed = 1;
  /// Durability layout; defaults to default_durability_config(capacity).
  std::optional<wal::DurabilityConfig> durability;
};

struct CrashCycleReport {
  bool crashed = false;
  /// Device checked-IO count consumed between arming and the end of the op
  /// stream — a clean probe run reports the sweep range for crash points.
  uint64_t post_setup_ios = 0;
  uint64_t mutations_total = 0;    // mutations carried by the full stream
  uint64_t durable_mutations = 0;  // the prefix that survived the crash
  uint64_t resumed_ops = 0;        // ops re-driven after recovery
  uint64_t reference_digest = 0;   // from reference_state_digest()
  uint64_t recovered_digest = 0;   // state right after the first recovery
  uint64_t rerecovered_digest = 0;  // after the second recovery (idempotence)
  uint64_t final_digest = 0;        // after resuming + flush
  wal::RecoveryReport recovery;     // the first recovery's report
};

/// kv::digest_rows over the dictionary's full contents, read in key order
/// via chunked range scans. Equal digests == equal state.
uint64_t state_digest(kv::Dictionary& dict);

/// The uncrashed reference: same engine factory on a pristine device (no
/// WAL wrapper — also a transparency check), full op stream, flush, digest.
uint64_t reference_state_digest(const CrashCycleSpec& spec);

/// One crash/recover/resume cycle; see the file comment for the protocol.
/// `reference_digest` is compared by the caller (it is echoed in the
/// report) so a sweep computes it once across many crash points.
CrashCycleReport run_crash_cycle(const CrashCycleSpec& spec,
                                 uint64_t reference_digest);

}  // namespace damkit::harness
