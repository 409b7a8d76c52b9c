// Mechanical hard-disk simulator.
//
// The simulator's behaviour is deliberately *richer* than the affine model
// it is used to validate: seek time depends on arm travel distance (a
// square-root curve between track-to-track and full-stroke), rotational
// latency depends on the platter's angular position at seek completion,
// and transfer rate varies by zone (outer tracks carry more sectors).
// §4.2 of the paper fits `cost(x) = s + t·x` to such a device by linear
// regression; the fit quality (R² ≈ 0.999) is the experimental result.
#pragma once

#include <span>
#include <string>

#include "sim/device.h"

namespace damkit::sim {

/// Physical parameterization of a simulated disk.
struct HddConfig {
  std::string name = "generic-hdd";
  int year = 2011;
  uint64_t capacity_bytes = 500ULL * 1024 * 1024 * 1024;
  double rpm = 7200.0;

  // Seek curve: seek(d) = track_to_track + (full_stroke - track_to_track) ·
  // sqrt(d / num_tracks) for d > 0 tracks of travel; 0 for d == 0.
  double track_to_track_s = 0.001;
  double full_stroke_s = 0.020;

  // Sustained media rate averaged over the surface; outer zone reads
  // `zone_ratio`× faster than inner, linear in track index.
  double avg_bandwidth_bps = 150.0e6;
  double zone_ratio = 1.35;  // outer/inner bandwidth ratio

  uint64_t track_bytes = 1024 * 1024;  // nominal bytes per track (average)

  // Fixed per-IO controller/command overhead.
  double command_overhead_s = 50e-6;

  /// How the drive orders the requests of one submit_batch (NCQ). The
  /// actuator still serves them one at a time; reordering only shrinks the
  /// aggregate seek distance. kFifo preserves exact serial-equivalent
  /// timing for batches in submission order.
  SchedPolicy batch_policy = SchedPolicy::kSstf;

  /// Rotation period in seconds.
  double rotation_period_s() const { return 60.0 / rpm; }
  /// E[sqrt(|X-Y|)] for X, Y uniform on [0,1]: the arm travel distance is
  /// triangular, so the sqrt-curve's expected multiplier is 8/15.
  static constexpr double kMeanSqrtTravel = 8.0 / 15.0;
  /// Expected setup cost of a uniformly random access (mean seek over the
  /// sqrt-curve = t2t + (full-t2t)·(8/15), plus half a rotation).
  double expected_setup_s() const {
    return command_overhead_s + track_to_track_s +
           (full_stroke_s - track_to_track_s) * kMeanSqrtTravel +
           rotation_period_s() / 2.0;
  }
  /// Expected per-byte transfer cost in seconds (1 / average bandwidth).
  double expected_transfer_s_per_byte() const { return 1.0 / avg_bandwidth_bps; }
};

/// One step of the order a SchedPolicy imposes on pending requests: which
/// of them, given their tracks in arrival order, the arm at `head` serves
/// next. kFifo takes the oldest; kSstf the nearest track (oldest on ties);
/// kScan the nearest on the `scan_up` side of the sweep, flipping
/// `scan_up` (and reporting `reversed`) when that side is empty. Both
/// HddDevice's batches and run_scheduled's NCQ window order through this.
struct SchedPick {
  size_t index = 0;  // into `tracks`
  bool reversed = false;
};
SchedPick pick_request(SchedPolicy policy, uint64_t head,
                       std::span<const uint64_t> tracks, bool& scan_up);

/// Single-actuator disk: IOs queue behind the arm. Reads and writes are
/// symmetric (no write cache is modelled — the affine model of the paper
/// does not distinguish them either).
class HddDevice final : public Device {
 public:
  explicit HddDevice(HddConfig config, uint64_t rng_seed = 42);

  std::string name() const override;

  const HddConfig& config() const { return config_; }

  /// Track index containing byte `offset`. Exposed for tests.
  uint64_t track_of(uint64_t offset) const { return offset / config_.track_bytes; }
  uint64_t num_tracks() const { return num_tracks_; }
  /// Arm position after the last completed IO (schedulers peek at this).
  uint64_t head_track() const { return head_track_; }

  /// Media bandwidth (bytes/s) at a given track (zoned).
  double bandwidth_at(uint64_t track) const;

  /// Pure seek time in seconds for arm travel of `distance` tracks.
  double seek_time_s(uint64_t distance) const;

  /// Base metrics plus the mechanical setup decomposition: seek time,
  /// rotational wait, and command overhead separately (their sum is the
  /// base `setup_seconds`), and the arm-travel distance distribution.
  void export_metrics(stats::MetricsRegistry& reg,
                      std::string_view prefix) const override;

 protected:
  IoCompletion submit_io(const IoRequest& req, SimTime now) override;
  /// Serves the batch one request at a time (single actuator) but in the
  /// order config().batch_policy picks from the current arm position —
  /// the NCQ window reordering of scheduler.h applied to one batch.
  /// Completions are returned in submission order.
  std::vector<IoCompletion> submit_batch_io(std::span<const IoRequest> reqs,
                                            SimTime now) override;

 private:
  HddConfig config_;
  uint64_t num_tracks_;
  SimTime busy_until_ = 0;   // single actuator: next time the arm is free
  uint64_t head_track_ = 0;  // arm position after the last IO
  bool batch_scan_up_ = true;  // kScan sweep direction across batches
  // Setup decomposition (sums to DeviceStats::setup_time).
  SimTime seek_time_total_ = 0;
  SimTime rot_wait_total_ = 0;
  SimTime command_time_total_ = 0;
  Histogram seek_tracks_;  // arm travel distance per IO, in tracks
};

}  // namespace damkit::sim
