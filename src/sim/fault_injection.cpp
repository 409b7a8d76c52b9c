#include "sim/fault_injection.h"

#include <algorithm>

namespace damkit::sim {

namespace {
void check_rate(double rate, const char* what) {
  DAMKIT_CHECK_MSG(rate >= 0.0 && rate <= 1.0,
                   what << " must be in [0, 1], got " << rate);
}

// splitmix64: the crash tear length must be seeded-deterministic without
// touching fault_rng_, or arming a crash would shift every probabilistic
// draw after it.
uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

FaultInjectingDevice::FaultInjectingDevice(Device& inner,
                                           const FaultConfig& cfg)
    : Device(inner.capacity_bytes()),
      inner_(&inner),
      cfg_(cfg),
      fault_rng_(cfg.seed),
      spike_rng_(cfg.seed ^ 0x9d2c5680f0e1a3b7ULL) {
  check_rate(cfg.read_error_rate, "read_error_rate");
  check_rate(cfg.write_error_rate, "write_error_rate");
  check_rate(cfg.torn_write_rate, "torn_write_rate");
  check_rate(cfg.latency_spike_rate, "latency_spike_rate");
}

void FaultInjectingDevice::set_crash_at(uint64_t nth) {
  DAMKIT_CHECK_MSG(nth == 0 || nth > checked_ios(),
                   "crash point " << nth << " already passed ("
                                  << checked_ios() << " checked IOs)");
  crash_at_ = nth;
}

void FaultInjectingDevice::reboot() {
  crash_at_ = 0;
  crashed_ = false;
  pending_torn_.clear();
}

std::string FaultInjectingDevice::name() const {
  return "fault-injected " + inner_->name();
}

void FaultInjectingDevice::export_metrics(stats::MetricsRegistry& reg,
                                          std::string_view prefix) const {
  Device::export_metrics(reg, prefix);
  const std::string p(prefix);
  reg.add(p + "faults.checked_reads", fstats_.checked_reads);
  reg.add(p + "faults.checked_writes", fstats_.checked_writes);
  reg.add(p + "faults.injected_read_errors", fstats_.injected_read_errors);
  reg.add(p + "faults.injected_write_errors", fstats_.injected_write_errors);
  reg.add(p + "faults.injected_torn_writes", fstats_.injected_torn_writes);
  reg.add(p + "faults.injected_latency_spikes",
          fstats_.injected_latency_spikes);
  reg.add(p + "faults.crashes", fstats_.crashes);
  reg.add(p + "faults.post_crash_rejections", fstats_.post_crash_rejections);
}

void FaultInjectingDevice::maybe_spike(IoCompletion& c) {
  if (draw(spike_rng_, cfg_.latency_spike_rate)) {
    c.finish += cfg_.latency_spike_ns;
    ++fstats_.injected_latency_spikes;
  }
}

IoCompletion FaultInjectingDevice::submit_io(const IoRequest& req,
                                             SimTime now) {
  // Snapshot the inner affine split around delegation so the wrapper's
  // stats carry the same setup/transfer decomposition as the inner model.
  const DeviceStats& is = inner_->stats();
  const SimTime setup0 = is.setup_time;
  const SimTime transfer0 = is.transfer_time;
  IoCompletion c = inner_->submit(req, now);
  maybe_spike(c);
  account(req, c, now, is.setup_time - setup0, is.transfer_time - transfer0);
  return c;
}

std::vector<IoCompletion> FaultInjectingDevice::submit_batch_io(
    std::span<const IoRequest> reqs, SimTime now) {
  const DeviceStats& is = inner_->stats();
  const SimTime setup0 = is.setup_time;
  const SimTime transfer0 = is.transfer_time;
  std::vector<IoCompletion> cs = inner_->submit_batch(reqs, now);
  for (size_t i = 0; i < cs.size(); ++i) {
    maybe_spike(cs[i]);
    account(reqs[i], cs[i], now, 0, 0);
  }
  // The affine split is only known batch-wide; fold it in once.
  stats_.setup_time += is.setup_time - setup0;
  stats_.transfer_time += is.transfer_time - transfer0;
  return cs;
}

Status FaultInjectingDevice::inject_fault(const IoRequest& req, SimTime now) {
  (void)now;
  // The crash clock ticks first and consumes no randomness: an armed crash
  // leaves the probabilistic schedule of every pre-crash IO untouched.
  const bool is_read = req.kind == IoKind::kRead;
  if (is_read) {
    ++fstats_.checked_reads;
  } else {
    ++fstats_.checked_writes;
  }
  if (crash_at_ != 0 && checked_ios() >= crash_at_) {
    if (!crashed_) {
      // The crash instant itself: a write in flight lands as a seeded
      // strict prefix (power loss mid-extent); a read returns nothing.
      crashed_ = true;
      ++fstats_.crashes;
      if (!is_read) {
        const uint64_t h = mix64(cfg_.seed ^ mix64(crash_at_ ^ req.offset));
        pending_torn_[req.offset] = req.length <= 1 ? 0 : h % req.length;
        return Status::corruption("device crashed mid-write at offset " +
                                  std::to_string(req.offset));
      }
      return Status::unavailable("device crashed during read at offset " +
                                 std::to_string(req.offset));
    }
    ++fstats_.post_crash_rejections;
    return Status::unavailable("device is crashed; reboot() to continue");
  }
  if (is_read) {
    if (draw(fault_rng_, cfg_.read_error_rate)) {
      ++fstats_.injected_read_errors;
      return Status::unavailable("injected transient read error at offset " +
                                 std::to_string(req.offset));
    }
    return Status();
  }
  if (draw(fault_rng_, cfg_.write_error_rate)) {
    ++fstats_.injected_write_errors;
    return Status::unavailable("injected transient write error at offset " +
                               std::to_string(req.offset));
  }
  if (draw(fault_rng_, cfg_.torn_write_rate)) {
    ++fstats_.injected_torn_writes;
    // Strict prefix: a torn write never lands in full.
    pending_torn_[req.offset] =
        req.length <= 1 ? 0 : fault_rng_.uniform(req.length);
    return Status::corruption("injected torn write at offset " +
                              std::to_string(req.offset));
  }
  return Status();
}

void FaultInjectingDevice::note_failed_write(uint64_t offset,
                                             std::span<const uint8_t> data) {
  const auto it = pending_torn_.find(offset);
  if (it == pending_torn_.end()) return;  // transient error: nothing landed
  const uint64_t torn = std::min<uint64_t>(it->second, data.size());
  pending_torn_.erase(it);
  if (torn > 0) store_.write(offset, data.subspan(0, torn));
}

}  // namespace damkit::sim
