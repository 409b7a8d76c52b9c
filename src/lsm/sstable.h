// Immutable sorted string tables (SSTables) on a simulated device — the
// LSM-tree's on-disk runs, modelled on LevelDB's format.
//
// On-device layout (one contiguous extent, written with a single
// sequential IO — compactions stream):
//
//   [ data block 0 | data block 1 | ... | (index + bloom, not re-read) ]
//
// A data block is node::TaggedRecords back to back (tag 1 = tombstone),
// framed by the table's codec when it has one. The per-block index (first
// key, offset, length) and the Bloom filter are part of the written image
// but are kept resident in the in-memory handle after the table is opened,
// as LevelDB does once a table is in the table cache; point reads
// therefore cost one data-block IO.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "blockdev/byte_arena.h"
#include "blockdev/codec.h"
#include "node/record.h"
#include "sim/device.h"
#include "util/bloom.h"
#include "util/status.h"

namespace damkit::lsm {

/// A point read's result: the key's stored value or its deletion marker.
struct Entry {
  std::string value;
  bool tombstone = false;
};

/// A borrowed key/value pair or deletion marker: a builder's input, and a
/// cursor's or the memtable's entry, valid until its backing buffer
/// changes (e.g. the cursor loads its next run).
struct EntryView {
  std::string_view key;
  std::string_view value;
  bool tombstone = false;

  /// A block record's entry (a node::TaggedRecord; its tag is the flag).
  static EntryView of(const node::TaggedRecord::View& rec) {
    return EntryView{rec.key(), rec.value(), rec.tag != 0};
  }
};

class SSTable;
using SSTableRef = std::shared_ptr<const SSTable>;

/// One data block in a table's resident index.
struct BlockIndexEntry {
  std::string first_key;
  uint64_t offset;  // within the table image
  uint32_t length;  // stored (possibly compressed) bytes
  uint32_t entries;
};

/// Bloom filter bits per key in every table.
inline constexpr double kBloomBitsPerKey = 10.0;

/// Streams sorted entries into a new table image and writes it out.
class SSTableBuilder {
 public:
  /// `sequence` orders tables by recency (larger = newer). With a
  /// non-null `codec` each data block is stored as a compressed frame and
  /// the index addresses physical (compressed) block extents; the codec
  /// must outlive every table this builder produces. nullptr = identity.
  /// `expected_entries` reserves the keys' Bloom hash pairs up front, so a
  /// build that stays within it never regrows them.
  SSTableBuilder(sim::Device& dev, sim::IoContext& io,
                 blockdev::ByteArena& arena, uint64_t block_bytes,
                 uint64_t sequence,
                 const blockdev::BlockCodec* codec = nullptr,
                 uint64_t expected_entries = 0);
  ~SSTableBuilder();

  /// Keys must arrive in strictly ascending order. Copies the bytes.
  void add(const EntryView& entry);

  uint64_t entry_count() const { return count_; }
  uint64_t data_bytes() const { return data_.size() + block_.size(); }

  /// Write the table (one sequential device IO, retried by the IoContext)
  /// and return its handle; nullptr if no entries. The builder must not be
  /// reused. On give-up the reserved extent is freed and no table exists —
  /// the builder's source data (e.g. the memtable) must be kept by the
  /// caller.
  StatusOr<SSTableRef> try_finish();

 private:
  void flush_block();

  sim::Device* dev_;
  sim::IoContext* io_;
  blockdev::ByteArena* arena_;
  uint64_t block_bytes_;
  uint64_t sequence_;
  const blockdev::BlockCodec* codec_;

  std::vector<uint8_t> data_;   // completed (possibly compressed) blocks
  std::vector<uint8_t> block_;  // current block under construction (raw)
  std::vector<uint8_t> enc_;    // codec frame staging
  std::vector<BlockIndexEntry> index_;
  // Each key's Bloom hash pair, in key order. The filter is sized by the
  // entry count, known only at try_finish, which sets the bits from these
  // pairs: no key is copied for it.
  std::vector<BloomFilter::Hashes> key_hashes_;
  std::string first_key_, last_key_;
  uint64_t count_ = 0;
  bool finished_ = false;
};

/// An open, immutable table. Thread-compatible (const after creation).
class SSTable {
 public:
  ~SSTable();

  uint64_t sequence() const { return sequence_; }
  uint64_t entry_count() const { return entry_count_; }
  uint64_t data_bytes() const { return data_bytes_; }
  uint64_t total_bytes() const { return total_bytes_; }
  const std::string& min_key() const { return min_key_; }
  const std::string& max_key() const { return max_key_; }
  size_t block_count() const { return index_.size(); }

  /// True if [min_key, max_key] intersects [lo, hi] (inclusive bounds;
  /// empty strings are not special).
  bool overlaps(std::string_view lo, std::string_view hi) const;

  /// Bloom-filter probe (no IO). False ⇒ the key is definitely absent.
  bool may_contain(std::string_view key) const {
    return bloom_.may_contain(key);
  }

  /// Point lookup. Consults the bloom filter first (no IO); on a maybe,
  /// reads exactly one data block (charged to and retried by `io`, then
  /// the failure is surfaced). Returns nullopt if the key is not in this
  /// table; a tombstone returns an Entry with tombstone=true.
  StatusOr<std::optional<Entry>> try_get(std::string_view key,
                                         sim::IoContext& io) const;

  /// Sequential cursor over entries with key >= lo. `readahead_blocks`
  /// blocks are fetched per IO (1 = strict point granularity; scans and
  /// compactions use larger runs — the affine model rewards exactly this),
  /// each retried by `io`. With charge_io = false the cursor reads payload
  /// only: the caller has already charged the run IOs (e.g. as one
  /// compaction-wide batch).
  class Iterator {
   public:
    bool valid() const { return valid_; }
    const EntryView& entry() const { return current_; }
    void next();
    /// Non-OK when the cursor stopped because a block read gave up after
    /// retries, a codec frame failed to decode, or a record's header or
    /// length ran past its decoded run (kCorruption); valid() is then
    /// false. Callers that treat an invalid cursor as end-of-table MUST
    /// consult this or they silently truncate.
    const Status& status() const { return status_; }

   private:
    friend class SSTable;
    Iterator(const SSTable* table, sim::IoContext* io, std::string_view lo,
             size_t readahead_blocks, bool charge_io);
    void load_blocks(size_t first_block);
    /// View the record at run_pos_, or stop with kCorruption if it does
    /// not fit in what remains of the run.
    void view_record();

    const SSTable* table_ = nullptr;
    sim::IoContext* io_ = nullptr;
    size_t readahead_ = 1;
    bool charge_io_ = true;
    Status status_;
    size_t next_block_ = 0;     // first block not yet fetched
    std::vector<uint8_t> run_;  // decoded current run, wire format
    size_t run_pos_ = 0;        // byte offset of the current record
    size_t run_remaining_ = 0;  // records left in run_ (incl. current)
    EntryView current_;         // borrows from run_
    bool valid_ = false;
  };
  Iterator seek(std::string_view lo, sim::IoContext& io,
                size_t readahead_blocks = 1, bool charge_io = true) const;

  /// The device reads a full sequential pass at `readahead_blocks` issues:
  /// one request per run of contiguous blocks. Used to precharge a
  /// compaction's input IOs as device batches before iterating with
  /// charge_io = false.
  std::vector<sim::IoRequest> run_requests(size_t readahead_blocks) const;

  /// Drop the table's device extent (called by the tree on obsolescence).
  /// Lifecycle operation, allowed on const handles: the table's *data*
  /// stays immutable; only its storage is reclaimed.
  void release() const;

 private:
  friend class SSTableBuilder;
  SSTable() = default;

  /// Number of blocks whose first key is <= `key`.
  size_t blocks_through(std::string_view key) const;

  /// Read blocks [first, end), contiguous in the image, as one IO of
  /// their stored bytes (retried by `io`; payload only when `!charge_io`,
  /// its timing precharged by the caller) and leave their decoded
  /// wire-format records back to back in `*run`.
  Status try_read_blocks(size_t first, size_t end, sim::IoContext& io,
                         bool charge_io, std::vector<uint8_t>* run) const;

  sim::Device* dev_ = nullptr;
  blockdev::ByteArena* arena_ = nullptr;
  const blockdev::BlockCodec* codec_ = nullptr;  // nullptr = identity
  uint64_t device_offset_ = 0;
  uint64_t total_bytes_ = 0;
  uint64_t data_bytes_ = 0;
  uint64_t entry_count_ = 0;
  uint64_t sequence_ = 0;
  std::string min_key_, max_key_;

  std::vector<BlockIndexEntry> index_;
  BloomFilter bloom_{0};
  mutable bool released_ = false;
};

}  // namespace damkit::lsm
