// Simulated storage device interface.
//
// damkit separates *timing* from *data*: a Device computes, in simulated
// nanoseconds, when an IO submitted at time `now` completes (modelling
// seeks, rotation, die parallelism, bus contention, queueing), while the
// payload bytes live in a sparse in-memory store and are read/written
// synchronously. All experiment "seconds" are simulated device time, so
// results are deterministic and independent of host speed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "blockdev/retry.h"
#include "sim/memstore.h"
#include "stats/metrics.h"
#include "util/histogram.h"
#include "util/status.h"

namespace damkit::sim {

/// Simulated time in nanoseconds since device power-on.
using SimTime = uint64_t;

inline constexpr SimTime kNsPerUs = 1000;
inline constexpr SimTime kNsPerMs = 1000 * kNsPerUs;
inline constexpr SimTime kNsPerSec = 1000 * kNsPerMs;

inline double to_seconds(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kNsPerSec);
}
inline SimTime from_seconds(double s) {
  return static_cast<SimTime>(s * static_cast<double>(kNsPerSec));
}

enum class IoKind : uint8_t { kRead, kWrite };

/// How a device may reorder requests it holds concurrently (an NCQ window
/// or a submission-queue batch). Lives here rather than scheduler.h so
/// device configs can carry a policy without a circular include.
///   kFifo — submission order (queue depth irrelevant).
///   kSstf — shortest seek time first within the window.
///   kScan — elevator: sweep the window in one direction, reverse at ends.
enum class SchedPolicy : uint8_t { kFifo, kSstf, kScan };

const char* sched_policy_name(SchedPolicy p);

/// A single device IO: a contiguous byte range. `queue` names the NVMe
/// submission/completion queue pair carrying the request; devices without
/// per-client queues (HDD, plain SSD) ignore it, `MqSsdDevice` routes on
/// it (mod its configured queue_pairs).
struct IoRequest {
  IoKind kind = IoKind::kRead;
  uint64_t offset = 0;
  uint64_t length = 0;
  uint32_t queue = 0;
};

/// When a submitted IO started service and when it completed.
struct IoCompletion {
  SimTime start = 0;   // service start (>= submission time; queueing included)
  SimTime finish = 0;  // completion time
  SimTime latency(SimTime submitted) const { return finish - submitted; }
};

/// Cumulative IO accounting, cheap enough to keep always-on. The
/// write-amplification experiments read `bytes_written` directly.
///
/// setup/transfer decompose each IO's service time the way the affine
/// model does (§4.2): setup is everything paid before the first payload
/// byte moves (command processing, seek, rotation — fixed per IO), and
/// transfer is payload-proportional media/bus time. Each device model
/// fills the split from its own mechanism; `queue_wait` is time spent
/// waiting for device resources *before* service starts and belongs to
/// neither side.
struct DeviceStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  SimTime busy_time = 0;      // total device-busy nanoseconds
  SimTime setup_time = 0;     // per-IO positioning/command time
  SimTime transfer_time = 0;  // payload-proportional media/bus time
  SimTime queue_wait = 0;     // submission-to-service-start wait
  uint64_t batches = 0;       // submit_batch calls
  uint64_t batch_ios = 0;     // requests that arrived via submit_batch

  /// Measured affine parameters of the traffic seen so far: mean setup
  /// seconds per IO and mean transfer seconds per byte. Compare against
  /// HddConfig::expected_setup_s() / expected_transfer_s_per_byte().
  double mean_setup_s_per_io() const {
    const uint64_t ios = reads + writes;
    return ios == 0 ? 0.0 : to_seconds(setup_time) / static_cast<double>(ios);
  }
  double mean_transfer_s_per_byte() const {
    const uint64_t bytes = bytes_read + bytes_written;
    return bytes == 0
               ? 0.0
               : to_seconds(transfer_time) / static_cast<double>(bytes);
  }

  void clear() { *this = DeviceStats{}; }
};

/// Abstract simulated block device.
///
/// Timing contract: submissions must arrive in nondecreasing `now` order
/// (the closed-loop driver and single-threaded IoContext guarantee this;
/// `submit` aborts on violation — a reordered caller would otherwise
/// corrupt timing silently). Devices may queue: `IoCompletion.start` can
/// exceed `now`.
class Device {
 public:
  explicit Device(uint64_t capacity_bytes)
      : capacity_(capacity_bytes), store_(capacity_bytes) {}
  virtual ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// Model name, e.g. "1 TB WD Black (2011)".
  virtual std::string name() const = 0;

  /// Compute service timing for `req` submitted at `now`, updating internal
  /// mechanical/electrical state. Does not touch payload bytes. submit()
  /// and submit_batch() are the pure timing-model entry points (closed-loop
  /// drivers, the disk scheduler, trace replay, decorating devices) and
  /// never fault; storage code does its IO through IoContext's checked
  /// calls instead.
  IoCompletion submit(const IoRequest& req, SimTime now) {
    enforce_clock(now);
    return submit_io(req, now);
  }

  /// Batched submission (the SQ/CQ path): every request in `reqs` is
  /// outstanding at `now`, so the device may serve them concurrently (SSD
  /// dies) or reorder them within the batch window (HDD NCQ). Completions
  /// are returned in request order; the batch as a whole completes at the
  /// max finish, not the sum of latencies.
  std::vector<IoCompletion> submit_batch(std::span<const IoRequest> reqs,
                                         SimTime now) {
    enforce_clock(now);
    note_batch(reqs);
    return submit_batch_io(reqs, now);
  }

  /// Fallible submission: like submit(), but invalid requests surface as
  /// kInvalidArgument/kOutOfRange instead of aborting, and the device's
  /// fault hook may fail the IO (kUnavailable/kCorruption). A faulted IO
  /// still occupies the device — timing is computed, charged, and written
  /// to `*out` — but its payload must not be transferred (use
  /// read_checked/write_checked, which honor this). `*out` is untouched
  /// when the request itself was invalid. The checked primitives here
  /// make one attempt; IoContext's checked calls retry.
  Status submit_checked(const IoRequest& req, SimTime now, IoCompletion* out) {
    DAMKIT_RETURN_IF_ERROR(bounds_status(req));
    enforce_clock(now);
    Status fault = inject_fault(req, now);
    *out = submit_io(req, now);
    return fault;
  }

  /// Fallible batch submission. Returns non-OK (with no timing charged)
  /// only when a request is invalid; otherwise returns OK and reports each
  /// request's injected-fault verdict in `*per_io` (OK = payload may move).
  /// Completions are computed for every request, faulted or not.
  Status submit_batch_checked(std::span<const IoRequest> reqs, SimTime now,
                              std::vector<IoCompletion>* completions,
                              std::vector<Status>* per_io) {
    for (const IoRequest& req : reqs) {
      DAMKIT_RETURN_IF_ERROR(bounds_status(req));
    }
    enforce_clock(now);
    per_io->clear();
    per_io->reserve(reqs.size());
    for (const IoRequest& req : reqs) per_io->push_back(inject_fault(req, now));
    note_batch(reqs);
    *completions = submit_batch_io(reqs, now);
    return Status();
  }

  uint64_t capacity_bytes() const { return capacity_; }

  /// Host memory held by the sparse backing store (written, untrimmed
  /// pages) — not a simulated quantity.
  uint64_t resident_host_bytes() const { return store_.resident_bytes(); }

  const DeviceStats& stats() const { return stats_; }
  void clear_stats() {
    stats_.clear();
    io_size_.clear();
    latency_.clear();
    batch_width_.clear();
  }

  /// Stream every served IO into `trace` (nullptr stops recording). The
  /// trace must outlive the recording window.
  void set_trace(class IoTrace* trace) { trace_ = trace; }

  /// Log-scale distributions of per-request IO size (bytes), latency
  /// (ns, submission to finish), and submit_batch width (requests).
  /// Empty when the build has DAMKIT_STATS off.
  const Histogram& io_size_histogram() const { return io_size_; }
  const Histogram& latency_histogram() const { return latency_; }
  const Histogram& batch_width_histogram() const { return batch_width_; }

  /// Export counters/gauges/histograms under `prefix` (e.g. "dev.").
  /// Subclasses extend with model-specific metrics (per-die utilization,
  /// seek decomposition) and must call the base implementation.
  virtual void export_metrics(stats::MetricsRegistry& reg,
                              std::string_view prefix) const;

  /// TRIM/deallocate: the range's contents are dropped (read back as
  /// zero) and host memory released. No timing charge — discard commands
  /// are queue-asynchronous on real devices.
  void trim(uint64_t offset, uint64_t length) {
    store_.discard(offset, length);
  }

  /// Payload access (synchronous; timing handled by the submit paths).
  void read_bytes(uint64_t offset, std::span<uint8_t> out) {
    store_.read(offset, out);
  }
  void write_bytes(uint64_t offset, std::span<const uint8_t> data) {
    store_.write(offset, data);
  }

  /// Fallible timing + payload. On failure `out` is left untouched (reads)
  /// or routed through note_failed_write (writes), so a faulted IO never
  /// silently transfers data.
  Status read_checked(uint64_t offset, std::span<uint8_t> out, SimTime now,
                      IoCompletion* c) {
    const Status s =
        submit_checked({IoKind::kRead, offset, out.size()}, now, c);
    if (s.ok()) store_.read(offset, out);
    return s;
  }
  Status write_checked(uint64_t offset, std::span<const uint8_t> data,
                       SimTime now, IoCompletion* c) {
    const Status s =
        submit_checked({IoKind::kWrite, offset, data.size()}, now, c);
    settle_write(offset, data, s);
    return s;
  }

  /// Move a checked write's payload per its fault verdict: an OK write
  /// lands in full, a failed one goes through note_failed_write. Callers
  /// that split timing from payload (batched writes) call this once per
  /// request instead of write_bytes().
  void settle_write(uint64_t offset, std::span<const uint8_t> data,
                    const Status& verdict) {
    if (verdict.ok()) {
      store_.write(offset, data);
    } else {
      note_failed_write(offset, data);
    }
  }

  /// Payload hook for a write whose checked submission failed. The default
  /// drops the payload entirely (nothing reached the media); fault models
  /// override to persist a torn prefix.
  virtual void note_failed_write(uint64_t offset,
                                 std::span<const uint8_t> data) {
    (void)offset;
    (void)data;
  }

 protected:
  /// Timing model for a single request. `now` is guaranteed nondecreasing
  /// across calls (enforced by the public wrappers).
  virtual IoCompletion submit_io(const IoRequest& req, SimTime now) = 0;

  /// Timing model for a batch. The default serializes through submit_io at
  /// a constant `now` — device queueing then decides the overlap (per-die
  /// queues overlap on an SSD; the single actuator serializes on an HDD).
  virtual std::vector<IoCompletion> submit_batch_io(
      std::span<const IoRequest> reqs, SimTime now);

  /// Fault-decision hook, consulted once per request in submission order
  /// by the checked paths only (the timing-model entry points
  /// submit()/submit_batch() never fault). The default injects nothing.
  virtual Status inject_fault(const IoRequest& req, SimTime now) {
    (void)req;
    (void)now;
    return Status();
  }

  void enforce_clock(SimTime now) {
    DAMKIT_CHECK_MSG(now >= last_submit_,
                     "device clock ran backwards: now=" << now
                         << " < last submission=" << last_submit_);
    last_submit_ = now;
  }

  /// `now` is the submission time (for queue-wait and latency accounting);
  /// `setup`/`transfer` are this IO's affine service split, computed by
  /// the concrete device model.
  void account(const IoRequest& req, const IoCompletion& c, SimTime now,
               SimTime setup, SimTime transfer) {
    if (req.kind == IoKind::kRead) {
      ++stats_.reads;
      stats_.bytes_read += req.length;
    } else {
      ++stats_.writes;
      stats_.bytes_written += req.length;
    }
    stats_.busy_time += c.finish - c.start;
    stats_.setup_time += setup;
    stats_.transfer_time += transfer;
    stats_.queue_wait += c.start > now ? c.start - now : 0;
    DAMKIT_STATS_ONLY({
      io_size_.record(req.length);
      latency_.record(c.latency(now));
    });
    if (trace_ != nullptr) record_trace(req, c, now);
  }

  /// Out-of-line so this header need not see IoTrace's definition.
  void record_trace(const IoRequest& req, const IoCompletion& c,
                    SimTime submit);

  void check_bounds(const IoRequest& req) const {
    DAMKIT_CHECK_MSG(req.length > 0, "zero-length IO");
    DAMKIT_CHECK_MSG(req.offset + req.length <= capacity_,
                     "IO past device end: off=" << req.offset
                                                << " len=" << req.length
                                                << " cap=" << capacity_);
  }

  /// check_bounds() as a Status, overflow-safe, for the checked paths.
  Status bounds_status(const IoRequest& req) const {
    if (req.length == 0) return Status::invalid_argument("zero-length IO");
    if (req.offset > capacity_ || capacity_ - req.offset < req.length) {
      return Status::out_of_range(
          "IO past device end: off=" + std::to_string(req.offset) +
          " len=" + std::to_string(req.length) +
          " cap=" + std::to_string(capacity_));
    }
    return Status();
  }

  /// Shared batch bookkeeping for submit_batch / submit_batch_checked.
  void note_batch(std::span<const IoRequest> reqs) {
    if (reqs.empty()) return;
    ++stats_.batches;
    stats_.batch_ios += reqs.size();
    DAMKIT_STATS_ONLY(batch_width_.record(reqs.size()));
  }

  uint64_t capacity_;
  DeviceStats stats_;
  MemStore store_;
  class IoTrace* trace_ = nullptr;
  SimTime last_submit_ = 0;  // timing-contract watermark
  Histogram io_size_;      // bytes per request
  Histogram latency_;      // ns, submission to completion
  Histogram batch_width_;  // requests per submit_batch
};

/// Tracks one logical client's simulated clock against a device. All
/// single-threaded data structures perform IO through an IoContext so the
/// "wall-clock" they experience includes every device delay.
///
/// The context is also the one place IO is retried: its checked calls
/// re-attempt a failed request under its RetryPolicy and count every
/// re-attempt and every give-up in its RetryCounters, which everything
/// issuing IO through it shares.
class IoContext {
 public:
  explicit IoContext(Device& dev) : dev_(&dev) {}

  SimTime now() const { return now_; }
  void advance_to(SimTime t) {
    if (t > now_) now_ = t;
  }
  /// Charge pure CPU time (rarely used; IO dominates in these experiments).
  void spend(SimTime dt) { now_ += dt; }

  Device& device() { return *dev_; }

  /// The policy every checked call below retries under.
  void set_retry_policy(const blockdev::RetryPolicy& policy) {
    policy_ = policy;
  }
  const blockdev::RetryCounters& retry_counters() const { return counters_; }

  /// Every IO below advances this context's clock to its completion, even
  /// a faulted one — a failed request occupies the device like any other —
  /// so retries charge realistic time for every attempt, plus each
  /// backoff. A failed attempt is re-attempted until the policy is
  /// exhausted: kUnavailable always, kCorruption for writes only (a torn
  /// write is repaired by rewriting the extent in full; a corrupt read has
  /// nothing to retry into). Any other code, such as an invalid request,
  /// surfaces at once. Each re-attempt counts one retry and an abandoned
  /// request one give-up.
  Status read_checked(uint64_t offset, std::span<uint8_t> out) {
    return retried(IoKind::kRead, [&](IoCompletion* c) {
      return dev_->read_checked(offset, out, now_, c);
    });
  }
  Status write_checked(uint64_t offset, std::span<const uint8_t> data) {
    return retried(IoKind::kWrite, [&](IoCompletion* c) {
      return dev_->write_checked(offset, data, now_, c);
    });
  }
  Status touch_read_checked(uint64_t offset, uint64_t length) {
    return retried(IoKind::kRead, [&](IoCompletion* c) {
      return dev_->submit_checked({IoKind::kRead, offset, length}, now_, c);
    });
  }
  Status touch_write_checked(uint64_t offset, uint64_t length) {
    return retried(IoKind::kWrite, [&](IoCompletion* c) {
      return dev_->submit_checked({IoKind::kWrite, offset, length}, now_, c);
    });
  }

  /// A batch of IOs, all outstanding at now(): the clock advances to the
  /// *max* completion. This is where batching pays: a serial loop advances
  /// by the sum of latencies, a batch only by the slowest request (the
  /// device overlaps the rest). Each attempt submits the pending requests
  /// as one device batch, then calls `on_verdict(i, verdict)` for each of
  /// them in batch order (i indexes `reqs`). The hook moves request i's
  /// payload when `verdict` is OK and routes a failed write's payload to
  /// Device::note_failed_write otherwise (Device::settle_write does both
  /// for a write); it must not issue IO through this context. Its return
  /// matters only for an OK verdict: a non-OK return there (e.g. a decode
  /// failure) is reported but neither retried nor counted. Only the
  /// retryable failures are re-submitted, after one backoff per attempt,
  /// counting one retry per re-submitted request and one give-up per
  /// abandoned request. Once nothing is left to retry, returns the first
  /// give-up (or hook failure). A non-OK batch submission (an invalid
  /// request) returns at once with no time charged.
  template <typename OnVerdict>
  Status submit_batch_checked(std::span<const IoRequest> reqs,
                              OnVerdict&& on_verdict);

 private:
  static bool retryable(IoKind kind, const Status& s) {
    return s.code() == StatusCode::kUnavailable ||
           (kind == IoKind::kWrite && s.code() == StatusCode::kCorruption);
  }

  /// Run `attempt` (one device submission at now(), its completion written
  /// to the argument) until it returns OK or the policy is exhausted.
  template <typename Attempt>
  Status retried(IoKind kind, Attempt&& attempt) {
    DAMKIT_CHECK_MSG(!in_hook_, "a batch hook issued IO through its context");
    const uint32_t max_attempts = std::max<uint32_t>(policy_.max_attempts, 1);
    double backoff = static_cast<double>(blockdev::kBackoffNs);
    for (uint32_t tries = 1;; ++tries) {
      IoCompletion c;
      const Status s = attempt(&c);
      advance_to(c.finish);
      if (s.ok()) return s;
      if (!retryable(kind, s) || tries >= max_attempts) {
        ++counters_.give_ups;
        return s;
      }
      spend(static_cast<SimTime>(backoff));
      backoff *= blockdev::kBackoffMultiplier;
      ++counters_.retries;
    }
  }

  Device* dev_;
  SimTime now_ = 0;
  blockdev::RetryPolicy policy_;
  blockdev::RetryCounters counters_;
  // submit_batch_checked's working storage, reused across calls so hot
  // paths allocate nothing per batch.
  std::vector<size_t> pending_;  // request indices submitted this attempt
  std::vector<size_t> failed_;   // ... and those to re-submit next attempt
  std::vector<IoRequest> batch_;
  std::vector<IoCompletion> completions_;
  std::vector<Status> per_io_;
  bool in_hook_ = false;  // an on_verdict hook is running
};

template <typename OnVerdict>
Status IoContext::submit_batch_checked(std::span<const IoRequest> reqs,
                                       OnVerdict&& on_verdict) {
  DAMKIT_CHECK_MSG(!in_hook_, "a batch hook issued IO through its context");
  const uint32_t max_attempts = std::max<uint32_t>(policy_.max_attempts, 1);
  double backoff = static_cast<double>(blockdev::kBackoffNs);
  pending_.resize(reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) pending_[i] = i;
  std::span<const IoRequest> batch = reqs;
  Status first;
  for (uint32_t attempt = 1; !pending_.empty(); ++attempt) {
    DAMKIT_RETURN_IF_ERROR(
        dev_->submit_batch_checked(batch, now_, &completions_, &per_io_));
    for (const IoCompletion& c : completions_) advance_to(c.finish);
    failed_.clear();
    in_hook_ = true;
    for (size_t j = 0; j < pending_.size(); ++j) {
      const size_t i = pending_[j];
      const Status& verdict = per_io_[j];
      Status done = on_verdict(i, verdict);
      if (verdict.ok()) {
        if (!done.ok() && first.ok()) first = std::move(done);
      } else if (retryable(reqs[i].kind, verdict) && attempt < max_attempts) {
        failed_.push_back(i);
      } else {
        ++counters_.give_ups;
        if (first.ok()) first = verdict;
      }
    }
    in_hook_ = false;
    if (failed_.empty()) break;
    spend(static_cast<SimTime>(backoff));
    backoff *= blockdev::kBackoffMultiplier;
    counters_.retries += failed_.size();
    std::swap(pending_, failed_);
    batch_.clear();
    for (const size_t i : pending_) batch_.push_back(reqs[i]);
    batch = batch_;
  }
  return first;
}

}  // namespace damkit::sim
