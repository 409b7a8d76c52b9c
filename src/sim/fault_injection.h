// Deterministic fault injection for any simulated device.
//
// FaultInjectingDevice decorates an inner Device: timing is delegated to
// the inner model (so an HDD still seeks and an SSD still stripes across
// dies under injected faults), payload lives in the wrapper's own sparse
// store, and a seeded Rng drives per-request fault draws in submission
// order — the same seed and config replay the same fault schedule
// bit-for-bit.
//
// Three fault classes, each with an independent probability:
//   - transient read/write errors: the IO occupies the device (timing is
//     charged) but fails with kUnavailable; no payload moves. Retrying is
//     safe and usually succeeds.
//   - torn writes: the submission fails with kCorruption and only a
//     random strict prefix of the payload reaches the media (via the
//     note_failed_write hook). Callers that give up must not re-read the
//     extent without recovery.
//   - latency spikes: the IO succeeds but completes late by a configured
//     delta (garbage collection, remapping, link retraining — the tail
//     events Didona et al. highlight).
//
// On top of the probabilistic classes sits a deterministic *crash point*:
// arm it at the Nth checked IO (set_crash_at / crash_after) and that IO
// fails — a write lands only as a seeded strict prefix (power loss
// mid-extent), a read returns nothing — and every later checked IO fails
// kUnavailable until reboot() is called. The media (the wrapper's sparse
// store) survives the crash, which is exactly what a recovery path gets to
// work with. The crash check consumes no randomness, so arming it never
// perturbs the probabilistic schedules of IOs before the crash point.
//
// Faults are only consulted on the *checked* submission paths
// (submit_checked / read_checked / ...), which every storage IO goes
// through. The timing-only entry points submit() / submit_batch() never
// fail: they serve timing models (closed-loop drivers, the disk
// scheduler, trace replay) that move no payload. Latency spikes apply to
// every path — a slow IO is not an error.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/device.h"
#include "util/rng.h"
#include "util/status.h"

namespace damkit::sim {

/// Probabilities are per checked request, in [0, 1]. Error and torn draws
/// happen in submission order from one stream; spike draws use a second
/// stream so enabling checked paths does not perturb spike placement.
struct FaultConfig {
  uint64_t seed = 1;
  double read_error_rate = 0.0;     // P(kUnavailable) per checked read
  double write_error_rate = 0.0;    // P(kUnavailable) per checked write
  double torn_write_rate = 0.0;     // P(kCorruption + torn prefix) per write
  double latency_spike_rate = 0.0;  // P(finish += latency_spike_ns) per IO
  SimTime latency_spike_ns = 10 * kNsPerMs;
};

struct FaultStats {
  uint64_t checked_reads = 0;
  uint64_t checked_writes = 0;
  uint64_t injected_read_errors = 0;
  uint64_t injected_write_errors = 0;
  uint64_t injected_torn_writes = 0;
  uint64_t injected_latency_spikes = 0;
  uint64_t crashes = 0;                // crash points that actually fired
  uint64_t post_crash_rejections = 0;  // checked IOs refused while dead

  uint64_t injected_errors() const {
    return injected_read_errors + injected_write_errors +
           injected_torn_writes;
  }
};

class FaultInjectingDevice : public Device {
 public:
  /// `inner` provides the timing model and must outlive the wrapper; its
  /// payload store stays untouched (all payload goes through the wrapper).
  FaultInjectingDevice(Device& inner, const FaultConfig& cfg);

  std::string name() const override;

  /// Base device metrics plus "faults.*" counters under `prefix`.
  void export_metrics(stats::MetricsRegistry& reg,
                      std::string_view prefix) const override;

  const FaultStats& fault_stats() const { return fstats_; }
  const FaultConfig& fault_config() const { return cfg_; }
  Device& inner() { return *inner_; }

  /// Checked IOs observed so far (reads + writes), the clock the crash
  /// point is armed against.
  uint64_t checked_ios() const {
    return fstats_.checked_reads + fstats_.checked_writes;
  }
  /// True once the crash point has fired and until reboot().
  bool crashed() const { return crashed_; }
  /// Arm (or re-arm) the crash at the `nth` checked IO, 1-based and
  /// absolute; 0 disarms. Must name an IO that has not happened yet.
  void set_crash_at(uint64_t nth);
  /// Arm the crash so that exactly `more` further checked IOs succeed and
  /// the one after them dies.
  void crash_after(uint64_t more) { set_crash_at(checked_ios() + more + 1); }
  /// Power the device back up: the crash disarms, checked IOs succeed
  /// again, and the media keeps whatever had landed (torn tail included).
  void reboot();

  /// Persists the torn prefix recorded for a failed write at `offset`, if
  /// any; a transient error leaves the media untouched.
  void note_failed_write(uint64_t offset,
                         std::span<const uint8_t> data) override;

 protected:
  IoCompletion submit_io(const IoRequest& req, SimTime now) override;
  std::vector<IoCompletion> submit_batch_io(std::span<const IoRequest> reqs,
                                            SimTime now) override;
  Status inject_fault(const IoRequest& req, SimTime now) override;

 private:
  /// Bernoulli draw; consumes randomness only when the rate is non-zero,
  /// so disabled fault classes do not shift the others' schedules.
  static bool draw(Rng& rng, double rate) {
    return rate > 0.0 && rng.uniform_double() < rate;
  }
  void maybe_spike(IoCompletion& c);

  Device* inner_;
  FaultConfig cfg_;
  Rng fault_rng_;  // error/torn draws, checked submissions only
  Rng spike_rng_;  // latency spikes, every submission
  FaultStats fstats_;
  uint64_t crash_at_ = 0;  // 1-based checked-IO index; 0 = disarmed
  bool crashed_ = false;
  // Torn prefix length per faulted write offset, recorded by inject_fault
  // and consumed by note_failed_write.
  std::unordered_map<uint64_t, uint64_t> pending_torn_;
};

}  // namespace damkit::sim
