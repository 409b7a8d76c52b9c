// Double-slot checkpoint snapshot store.
//
// A checkpoint serializes the dictionary's full sorted contents into a
// payload and writes it to one of two alternating slots: payload blocks
// first, the header block last. The header carries the sequence number,
// the last LSN the snapshot covers, and 8-byte checks (util/hash.h) over
// both itself and the payload — so a crash at ANY point mid-checkpoint
// leaves that slot unverifiable and load() falls back to the other slot's
// older but complete snapshot. This is what makes a crash *during* checkpoint
// recoverable: the WAL is only truncated after the new slot is durable.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/device.h"
#include "stats/metrics.h"
#include "util/status.h"

namespace damkit::wal {

struct SnapshotConfig {
  /// Region start of slot 0; slot 1 follows at base_offset + slot_bytes.
  uint64_t base_offset = 0;
  uint64_t slot_bytes = 16ULL << 20;
  uint64_t block_bytes = 4096;
};

struct SnapshotMeta {
  uint64_t seq = 0;       // monotone checkpoint sequence; slot = seq % 2
  uint64_t last_lsn = 0;  // WAL replay resumes at last_lsn + 1
  uint64_t entries = 0;
  uint64_t payload_bytes = 0;
};

class SnapshotStore {
 public:
  SnapshotStore(sim::Device& dev, sim::IoContext& io,
                const SnapshotConfig& cfg);

  /// Write `payload` under `meta` to slot meta.seq % 2. Ordering makes it
  /// atomic: the header (with its checksums) lands after every payload
  /// block, so an interrupted write never yields a loadable half-snapshot.
  Status write(const SnapshotMeta& meta, std::span<const uint8_t> payload);

  /// Load the newest verifiable snapshot. Returns false (and clears the
  /// outputs) when neither slot holds one — a fresh store. Payload
  /// checksum failures demote a slot, they do not error.
  StatusOr<bool> load(SnapshotMeta* meta, std::vector<uint8_t>* payload);

  /// "snapshot.*" counters under `prefix`.
  void export_metrics(stats::MetricsRegistry& reg,
                      std::string_view prefix) const;

 private:
  uint64_t slot_offset(uint64_t seq) const {
    return cfg_.base_offset + (seq % 2) * cfg_.slot_bytes;
  }
  /// Read one slot's header + payload; returns false when the slot does
  /// not verify (any reason), true with outputs filled when it does.
  StatusOr<bool> load_slot(int slot, SnapshotMeta* meta,
                           std::vector<uint8_t>* payload);

  sim::Device* dev_;
  sim::IoContext* io_;
  SnapshotConfig cfg_;

  uint64_t writes_ = 0;
  uint64_t written_bytes_ = 0;
  uint64_t loads_ = 0;
  uint64_t invalid_slots_ = 0;  // slots demoted during load
};

}  // namespace damkit::wal
