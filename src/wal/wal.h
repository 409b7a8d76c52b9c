// Write-ahead log over a simulated device region.
//
// Records are framed with a magic, a monotone LSN, and a trailing 8-byte
// check (util/hash.h) over the rest of the record, appended to an
// in-memory group buffer and made durable by group commit: commit()
// rewrites the partial tail block plus any new full blocks as ONE
// submit_batch — the SQ/CQ path — so a commit pays the slowest block
// write, not the sum. Rewriting the tail block is safe
// under torn writes because the already-durable prefix bytes of that
// block are bit-identical in the new image: a tear either lands past
// them (new records lost, old intact) or within them (the old image's
// bytes land unchanged).
//
// Replay walks the region from the base and accepts the longest valid
// prefix: parse stops at zero padding (clean shutdown), at a record whose
// checksum or framing fails (torn tail — counted loudly), or at a valid
// record with an unexpected LSN (a stale record from before the last
// truncation — normal after reuse). Truncation at a checkpoint LSN
// resets the physical tail to the region base and writes a zeroed fence
// block so dead bytes cannot be mistaken for live log.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/device.h"
#include "stats/metrics.h"
#include "util/status.h"

namespace damkit::wal {

/// Buffered bytes that force a group commit whatever WalConfig::group_ops
/// says.
inline constexpr uint64_t kGroupCommitBytes = 256ULL << 10;

struct WalConfig {
  /// Region start on the device; the caller places it away from engine
  /// extent space (see default_durability_config).
  uint64_t base_offset = 0;
  uint64_t region_bytes = 32ULL << 20;
  /// Commit granularity: commits write whole multiples of this.
  uint64_t block_bytes = 4096;
  /// Group-commit policy: an append auto-commits once this many records
  /// or kGroupCommitBytes are pending. 1 record = commit per op.
  uint64_t group_ops = 32;
};

class WriteAheadLog {
 public:
  enum class RecordType : uint8_t { kPut = 1, kErase = 2, kUpsert = 3 };

  struct Record {
    uint64_t lsn = 0;
    RecordType type = RecordType::kPut;
    std::string key;
    std::string value;
  };

  struct ReplayResult {
    std::vector<Record> records;  // the valid prefix, LSNs consecutive
    bool torn_tail = false;       // parse/checksum failure at the frontier
    uint64_t stale_records = 0;   // valid frames with out-of-sequence LSNs
    uint64_t scanned_bytes = 0;
  };

  WriteAheadLog(sim::Device& dev, sim::IoContext& io, const WalConfig& cfg);

  /// Start an empty log whose next record must carry `next_lsn`: logical
  /// and physical reset plus a zeroed fence block at the region base.
  Status reset(uint64_t next_lsn);

  /// Buffer one record; `lsn` must be exactly the next expected LSN.
  /// kInvalidArgument, with no LSN taken and nothing buffered, when the
  /// record could never fit the region. Auto-commits per the group policy;
  /// a commit failure leaves the buffer intact (the records are NOT
  /// durable) and surfaces here. The next append retries that commit
  /// first and, if it fails again, returns the failure with no LSN taken
  /// and nothing buffered.
  Status append(RecordType type, std::string_view key, std::string_view value,
                uint64_t lsn);

  /// Force the group commit of all buffered records (no-op when empty).
  /// On success every buffered record is durable; on failure none may be
  /// assumed durable and the buffer is kept for retry.
  Status commit();

  /// Truncate after a checkpoint covering LSNs < `next_lsn`: physical
  /// tail back to the region base plus a fence block. Buffer must be
  /// empty (commit first).
  Status truncate(uint64_t next_lsn);

  /// Parse the region expecting `start_lsn` first and position this log
  /// for appends at the end of the valid prefix. When the frontier held
  /// garbage (torn tail or stale records) it is fenced off with a tail
  /// rewrite so the dead bytes cannot resurrect under later appends.
  StatusOr<ReplayResult> recover_scan(uint64_t start_lsn);

  uint64_t next_lsn() const { return next_lsn_; }
  /// Durable log bytes (committed content since the last truncation).
  uint64_t durable_bytes() const { return tail_; }
  uint64_t buffered_bytes() const { return buffer_.size(); }
  uint64_t buffered_records() const { return buffer_records_; }

  /// "wal.*" counters/gauges under `prefix`.
  void export_metrics(stats::MetricsRegistry& reg,
                      std::string_view prefix) const;

 private:
  /// Serialized record size for a key/value pair.
  static uint64_t record_bytes(std::string_view key, std::string_view value);
  /// The buffer has reached a group-commit threshold.
  bool commit_due() const {
    return buffer_records_ >= cfg_.group_ops ||
           buffer_.size() >= kGroupCommitBytes;
  }
  /// Write `content` as whole-block images starting at block index
  /// `first_block` in one checked batch (retried by the IoContext);
  /// `content` must be block-aligned in length.
  Status write_blocks(uint64_t first_block,
                      std::vector<uint8_t>&& content);
  /// Rewrite the current tail block (partial content zero-padded) plus a
  /// zeroed fence block after it — used by recover_scan to bury garbage.
  Status seal();

  sim::Device* dev_;
  sim::IoContext* io_;
  WalConfig cfg_;

  uint64_t next_lsn_ = 1;
  uint64_t tail_ = 0;  // committed content bytes since region base
  std::vector<uint8_t> tail_partial_;  // committed bytes of the tail block
  std::vector<uint8_t> buffer_;        // appended, not yet committed
  uint64_t buffer_records_ = 0;

  // Lifetime counters (survive truncation).
  uint64_t records_appended_ = 0;
  uint64_t commits_ = 0;
  uint64_t committed_bytes_ = 0;   // payload bytes made durable
  uint64_t commit_blocks_ = 0;     // block writes issued by commits
  uint64_t truncations_ = 0;
  uint64_t replay_torn_tails_ = 0;
  uint64_t replay_stale_records_ = 0;
};

}  // namespace damkit::wal
