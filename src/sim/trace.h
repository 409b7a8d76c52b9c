// IO trace capture, analysis and replay.
//
// Any Device can stream its served IOs into an IoTrace (set_trace()).
// Traces answer the locality questions behind the paper's aging /
// fragmentation citations [28, 29, 31]: how sequential is a workload,
// what seek distances does it induce, what would it cost on a different
// device or under a different scheduler (replay).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/device.h"
#include "util/status.h"

namespace damkit::sim {

struct TraceRecord {
  IoKind kind = IoKind::kRead;
  uint64_t offset = 0;
  uint64_t length = 0;
  SimTime submit = 0;  // caller clock at submission (batch members share it)
  SimTime start = 0;   // service start on the recording device
  SimTime finish = 0;  // completion on the recording device
};

class IoTrace {
 public:
  void record(const IoRequest& req, const IoCompletion& c, SimTime submit) {
    records_.push_back(
        {req.kind, req.offset, req.length, submit, c.start, c.finish});
  }

  const std::vector<TraceRecord>& records() const { return records_; }
  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  void clear() { records_.clear(); }

  /// Fraction of IOs whose offset continues the previous IO exactly.
  double sequential_fraction() const;
  /// Mean absolute inter-IO offset gap in bytes (0 = perfectly sequential).
  double mean_seek_bytes() const;
  /// Total payload bytes, reads + writes.
  uint64_t total_bytes() const;

  /// CSV round trip: header "kind,offset,length,submit,start,finish".
  /// A file that cannot be opened is kNotFound; one that cannot be read,
  /// or a malformed CSV, is kInvalidArgument.
  std::string to_csv() const;
  static StatusOr<IoTrace> from_csv(const std::string& csv);
  bool save(const std::string& path) const;
  static StatusOr<IoTrace> load(const std::string& path);

 private:
  std::vector<TraceRecord> records_;
};

/// Replay a trace against `dev`, issuing each IO when the previous one
/// finishes (closed loop; the recorded timing only orders requests).
/// Returns the replay makespan.
SimTime replay_trace(Device& dev, const IoTrace& trace);

}  // namespace damkit::sim
