#include "sim/hdd.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace damkit::sim {

HddDevice::HddDevice(HddConfig config, uint64_t rng_seed)
    : Device(config.capacity_bytes), config_(std::move(config)) {
  DAMKIT_CHECK(config_.track_bytes > 0);
  DAMKIT_CHECK(config_.capacity_bytes >= config_.track_bytes);
  DAMKIT_CHECK(config_.full_stroke_s >= config_.track_to_track_s);
  DAMKIT_CHECK(config_.zone_ratio >= 1.0);
  num_tracks_ = config_.capacity_bytes / config_.track_bytes;
  Rng rng(rng_seed);
  head_track_ = rng.uniform(num_tracks_);
}

std::string HddDevice::name() const {
  return config_.name + " (" + std::to_string(config_.year) + ")";
}

double HddDevice::bandwidth_at(uint64_t track) const {
  // Outer tracks (low index) are faster; linear interpolation chosen so the
  // surface-average bandwidth equals config_.avg_bandwidth_bps.
  const double r = config_.zone_ratio;
  const double outer = 2.0 * r / (1.0 + r);
  const double inner = 2.0 / (1.0 + r);
  const double frac =
      static_cast<double>(track) / static_cast<double>(num_tracks_);
  return config_.avg_bandwidth_bps * (outer + (inner - outer) * frac);
}

double HddDevice::seek_time_s(uint64_t distance) const {
  if (distance == 0) return 0.0;
  const double frac =
      static_cast<double>(distance) / static_cast<double>(num_tracks_);
  return config_.track_to_track_s +
         (config_.full_stroke_s - config_.track_to_track_s) * std::sqrt(frac);
}

IoCompletion HddDevice::submit_io(const IoRequest& req, SimTime now) {
  check_bounds(req);
  const SimTime start = std::max(now, busy_until_);

  // 1. Command processing + arm seek.
  const uint64_t target_track = track_of(req.offset);
  const uint64_t distance = (target_track > head_track_)
                                ? target_track - head_track_
                                : head_track_ - target_track;
  const SimTime command_t = from_seconds(config_.command_overhead_s);
  const SimTime seek_t = from_seconds(seek_time_s(distance));
  const SimTime arrive = start + command_t + seek_t;

  // 2. Rotational latency: wait for the target sector to come under the
  // head. The platter's angular position is a pure function of time.
  const SimTime period = from_seconds(config_.rotation_period_s());
  const double target_frac =
      static_cast<double>(req.offset % config_.track_bytes) /
      static_cast<double>(config_.track_bytes);
  const SimTime target_in_period =
      static_cast<SimTime>(target_frac * static_cast<double>(period));
  const SimTime phase = arrive % period;
  const SimTime rot_wait = (target_in_period >= phase)
                               ? target_in_period - phase
                               : period - phase + target_in_period;
  SimTime t = arrive + rot_wait;

  // 3. Media transfer, zone-aware, with a head/track switch at each track
  // boundary crossed.
  uint64_t off = req.offset;
  uint64_t remaining = req.length;
  double transfer_s = 0.0;
  while (remaining > 0) {
    const uint64_t track = off / config_.track_bytes;
    const uint64_t in_track = config_.track_bytes - off % config_.track_bytes;
    const uint64_t chunk = std::min(remaining, in_track);
    transfer_s += static_cast<double>(chunk) / bandwidth_at(track);
    off += chunk;
    remaining -= chunk;
    if (remaining > 0) transfer_s += config_.track_to_track_s * 0.25;
  }
  t += from_seconds(transfer_s);

  head_track_ = track_of(req.offset + req.length - 1);
  busy_until_ = t;

  // Affine split: setup = command + seek + rotational wait (everything
  // before the first payload byte), transfer = zoned media time.
  command_time_total_ += command_t;
  seek_time_total_ += seek_t;
  rot_wait_total_ += rot_wait;
  DAMKIT_STATS_ONLY(seek_tracks_.record(distance));

  const IoCompletion c{start, t};
  account(req, c, now, command_t + seek_t + rot_wait,
          from_seconds(transfer_s));
  return c;
}

void HddDevice::export_metrics(stats::MetricsRegistry& reg,
                               std::string_view prefix) const {
  Device::export_metrics(reg, prefix);
  const std::string p(prefix);
  reg.set(p + "seek_seconds", to_seconds(seek_time_total_));
  reg.set(p + "rot_wait_seconds", to_seconds(rot_wait_total_));
  reg.set(p + "command_seconds", to_seconds(command_time_total_));
  reg.set(p + "predicted_setup_seconds_per_io", config_.expected_setup_s());
  reg.set(p + "predicted_transfer_seconds_per_byte",
          config_.expected_transfer_s_per_byte());
  if (seek_tracks_.count() > 0) {
    reg.histo(p + "seek_tracks").merge(seek_tracks_);
  }
}

SchedPick pick_request(SchedPolicy policy, uint64_t head,
                       std::span<const uint64_t> tracks, bool& scan_up) {
  DAMKIT_CHECK(!tracks.empty());
  const auto distance = [head](uint64_t t) {
    return t > head ? t - head : head - t;
  };
  SchedPick pick;
  if (policy == SchedPolicy::kFifo) return pick;
  if (policy == SchedPolicy::kScan) {
    bool found = false;
    for (size_t i = 0; i < tracks.size(); ++i) {
      const bool on_side = scan_up ? tracks[i] >= head : tracks[i] <= head;
      if (on_side &&
          (!found || distance(tracks[i]) < distance(tracks[pick.index]))) {
        pick.index = i;
        found = true;
      }
    }
    if (found) return pick;
    scan_up = !scan_up;  // nothing left on this side: reverse the sweep
    pick.reversed = true;
  }
  // kSstf, or a kScan sweep that just reversed: nearest track overall.
  for (size_t i = 1; i < tracks.size(); ++i) {
    if (distance(tracks[i]) < distance(tracks[pick.index])) pick.index = i;
  }
  return pick;
}

std::vector<IoCompletion> HddDevice::submit_batch_io(
    std::span<const IoRequest> reqs, SimTime now) {
  std::vector<IoCompletion> out(reqs.size());
  std::vector<size_t> pending(reqs.size());
  std::vector<uint64_t> tracks(reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    pending[i] = i;
    tracks[i] = track_of(reqs[i].offset);
  }
  // Greedy service order from the live arm position, mirroring the NCQ
  // policies of scheduler.h at batch granularity.
  while (!pending.empty()) {
    const SchedPick pick =
        pick_request(config_.batch_policy, head_track_, tracks, batch_scan_up_);
    const size_t idx = pending[pick.index];
    out[idx] = submit_io(reqs[idx], now);
    pending.erase(pending.begin() + static_cast<ptrdiff_t>(pick.index));
    tracks.erase(tracks.begin() + static_cast<ptrdiff_t>(pick.index));
  }
  return out;
}

}  // namespace damkit::sim
