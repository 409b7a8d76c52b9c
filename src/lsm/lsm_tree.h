// A leveled log-structured merge tree over a simulated device — the
// third write-optimized dictionary the paper discusses (§1: "LevelDB's
// LSM-tree uses 2 MiB SSTables for all workloads").
//
// Structure follows LevelDB: an in-memory memtable; level 0 holding
// whole memtable flushes (tables may overlap, newest first); levels 1+
// holding sorted, non-overlapping runs, each level `size_ratio` times
// larger than the previous. Compaction merges one level-i table with the
// overlapping tables of level i+1, splitting output at the SSTable
// target size — the tuning knob this module exists to study under the
// affine model.
//
// Reads see the tree as runs, newest first: a run is key-sorted,
// non-overlapping tables (each L0 or tier table alone, each leveled L1+
// level whole). A point read probes at most one table per run; scans and
// compactions share one merge cursor over the memtable and runs.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "blockdev/byte_arena.h"
#include "kv/dictionary.h"
#include "lsm/memtable.h"
#include "lsm/sstable.h"
#include "sim/device.h"
#include "stats/metrics.h"

namespace damkit::lsm {

/// Compaction organization.
///   kLeveled — LevelDB-style: levels 1+ are single sorted runs; merging
///              rewrites overlapping data (higher write amp, 1 probe/level).
///   kTiered  — every level holds up to `level0_limit` overlapping runs;
///              a full level merges wholesale into the next (write amp
///              ~ depth, but up to level0_limit probes per level).
enum class CompactionStyle : uint8_t { kLeveled, kTiered };

/// Run IOs a compaction submits per device batch, interleaved across its
/// input tables so they land on distinct extents (SSD dies serve them in
/// parallel).
inline constexpr size_t kCompactionBatchIos = 8;

/// Blocks fetched per IO by scans and compactions (sequential access);
/// point reads always fetch exactly one block.
inline constexpr size_t kScanReadaheadBlocks = 32;

struct LsmConfig {
  uint64_t memtable_bytes = 4 * 1024 * 1024;
  /// Compaction output split size — LevelDB's 2 MiB knob.
  uint64_t sstable_target_bytes = 2 * 1024 * 1024;
  uint64_t block_bytes = 4096;  // point-read granularity
  size_t level0_limit = 4;      // flushes before L0→L1 compaction
  uint64_t level1_bytes = 10 * 1024 * 1024;
  double size_ratio = 10.0;  // level i+1 / level i capacity
  CompactionStyle style = CompactionStyle::kLeveled;
  uint64_t base_offset = 0;  // device offset of the table arena
  /// Block codec for stored SSTable data blocks. Each block is framed
  /// individually, so point reads stay one-block IOs; saved bytes shrink
  /// the transfer term of every read, write, and compaction.
  blockdev::CodecKind codec = blockdev::CodecKind::kIdentity;
};

struct LsmStats {
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t erases = 0;
  uint64_t scans = 0;
  uint64_t memtable_flushes = 0;
  uint64_t compactions = 0;
  uint64_t compaction_bytes_in = 0;
  uint64_t compaction_bytes_out = 0;
  uint64_t bloom_negative = 0;          // table probes skipped by the filter
  uint64_t table_probes = 0;            // tables consulted by point queries
  uint64_t compaction_batches = 0;      // device batches merges submitted
  uint64_t compaction_batched_ios = 0;  // run IOs inside those batches
  uint64_t flush_bytes_out = 0;         // L0 table bytes memtable flushes wrote
  uint64_t logical_bytes_written = 0;   // key+value bytes the user modified
};

class LsmTree final : public kv::Dictionary {
 public:
  LsmTree(sim::Device& dev, sim::IoContext& io, LsmConfig config);
  ~LsmTree() override;

  std::string_view name() const override { return "lsm"; }
  const kv::Capabilities& capabilities() const override;

  /// A non-OK status means some device IO gave up after retries.
  /// Mutations are applied to the memtable before any IO, so a failed
  /// put/erase is still durable in memory; a failed memtable flush or
  /// compaction leaves the previous tables (and the memtable) intact and
  /// is retried by the next operation that crosses the threshold.
  Status try_put(std::string_view key, std::string_view value) override;
  Status try_erase(std::string_view key) override;
  StatusOr<std::optional<std::string>> try_get(std::string_view key) override;
  /// No native upsert: read-modify-write of the counter (try_get, then
  /// try_put).
  Status try_upsert(std::string_view key, int64_t delta) override;

  /// Up to `limit` live pairs with key >= lo, in key order, merged across
  /// the memtable and every level (newest version wins).
  StatusOr<std::vector<std::pair<std::string, std::string>>> try_range_scan(
      std::string_view lo, size_t limit) override;

  /// Emulated (Capabilities::native_bulk_load = false): the ascending
  /// stream is ingested through the memtable, CHECK-aborting on failure.
  void bulk_load(
      uint64_t count,
      const std::function<std::pair<std::string, std::string>(uint64_t)>& item)
      override;

  /// Force the memtable to disk (and any due compactions).
  Status checkpoint() override;

  /// The policy and counters of the IoContext this tree's IO goes through.
  void set_retry_policy(const blockdev::RetryPolicy& policy) override {
    io_->set_retry_policy(policy);
  }
  blockdev::RetryCounters retry_counters() const override {
    return io_->retry_counters();
  }

  /// The level count; no node cache, so the hit rate is 0.
  size_t height() const override { return levels_.size(); }
  double cache_hit_rate() const override { return 0.0; }

  /// Levels' table counts, for introspection ([0] = L0).
  std::vector<size_t> level_table_counts() const;
  uint64_t level_bytes(size_t level) const;
  const LsmStats& stats() const { return stats_; }
  const LsmConfig& config() const { return config_; }
  sim::IoContext& io() { return *io_; }

  /// Invariants: every run key-sorted and non-overlapping; every level's
  /// runs newest first; every table non-empty with min_key <= max_key.
  void check_invariants() override;

  /// Compaction counts by source level ([0] = L0→L1). Tiered merges are
  /// attributed to the tier that overflowed.
  const std::vector<uint64_t>& compactions_by_level() const {
    return compactions_by_level_;
  }

  /// Export op/compaction counters, per-level compaction counts
  /// (`<prefix>compactions.level<i>`), batch occupancy, per-level table
  /// counts/bytes, and write amplification under `prefix` (e.g. "lsm.").
  void export_metrics(stats::MetricsRegistry& reg,
                      std::string_view prefix) const override;

 private:
  /// L0 and tiers: newest first; leveled L1+: by key.
  using Level = std::vector<SSTableRef>;
  /// Key-sorted, non-overlapping tables, read as one sequence.
  using Run = std::span<const SSTableRef>;
  class MergeCursor;

  Status flush_memtable();
  Status maybe_compact();
  /// All of L0 plus the L1 tables it overlaps.
  Status compact_level0();
  /// The round-robin victim of `level` plus the level+1 tables it overlaps.
  Status compact_level(size_t level);
  /// Tiered: every run of `level`, into level+1 wholesale.
  Status compact_tier(size_t level);
  /// Merge `inputs` (runs of `level` and level+1, newest first) into new
  /// tables, dropping tombstones when `bottom`; then release the inputs
  /// and install the outputs in level+1. Transactional: on a non-OK
  /// return every output written so far has been released and the inputs
  /// are untouched.
  Status merge_into(size_t level, const std::vector<Run>& inputs, bool bottom);
  /// Charge `reqs` as device batches of kCompactionBatchIos, retrying
  /// failed requests under the IoContext's retry policy.
  Status charge_compaction_batches(std::span<const sim::IoRequest> reqs);
  /// Append `level`'s runs, newest first: a leveled L1+ level is one run;
  /// an L0 or tier table is a run alone.
  void append_runs(size_t level, std::vector<Run>* out) const;
  /// Every run of the tree, newest first.
  std::vector<Run> runs() const;
  /// True if no level below `level` holds a table.
  bool nothing_below(size_t level) const;
  uint64_t level_capacity(size_t level) const;

  sim::Device* dev_;
  sim::IoContext* io_;
  LsmConfig config_;
  std::unique_ptr<blockdev::BlockCodec> codec_;  // nullptr = identity
  blockdev::ByteArena arena_;
  MemTable mem_;
  std::vector<Level> levels_;
  uint64_t next_sequence_ = 1;
  size_t compact_cursor_ = 0;  // round-robin pick within a level
  LsmStats stats_;
  std::vector<uint64_t> compactions_by_level_;  // index = source level
};

}  // namespace damkit::lsm
