// BufferPool: a byte-budgeted object cache for deserialized tree nodes —
// the "M" of the DAM/affine/PDAM models.
//
// The pool is deliberately an *object* cache (like TokuDB's cachetable)
// rather than a page cache: trees keep deserialized nodes in it, and the
// pool tracks a budget of charged bytes, evicting cold, unpinned entries
// LRU-first. Eviction of a dirty entry invokes the owner's writeback
// callback, which serializes the node and performs (and charges!) the
// device write. Pinning is implicit: an entry whose handle is still held
// by a caller (shared_ptr use_count > 1) is never evicted.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stats/metrics.h"
#include "util/status.h"

namespace damkit::cache {

struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;
  uint64_t writeback_failures = 0;  // failed attempts; entry stays dirty
  uint64_t inserted = 0;
  uint64_t pinned_bytes = 0;  // snapshot, refreshed by stats()
  uint64_t charged_bytes_hwm = 0;  // high-water of charged bytes
  /// High-water of pinned bytes. Pins are implicit shared_ptr refs, so
  /// this is sampled where the pool already walks entries (eviction scans,
  /// stats() calls) rather than recomputed per operation — treat it as a
  /// lower bound on the true peak.
  uint64_t pinned_bytes_hwm = 0;

  double hit_rate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class BufferPool {
 public:
  /// Writeback(id, object): owner must serialize and write the object to
  /// its backing store, charging the IO to its IoContext. A non-OK return
  /// means the object did NOT durably land; the pool keeps the entry dirty
  /// and resident, so no data is lost — the write is retried on the next
  /// eviction attempt or flush_all().
  using WritebackFn = std::function<Status(uint64_t id, void* object)>;

  /// Vectored writeback for checkpoints: the owner serializes every listed
  /// object and writes them as ONE device batch (NodeStore::write_nodes),
  /// so a flush cascade pays the slowest write instead of the sum. The
  /// owner must set (*written)[i] for every entry that durably landed —
  /// the pool clears dirty bits only for those — and return the first
  /// failure (or OK). `*written` arrives sized to `dirty.size()`, all
  /// false.
  using BatchWritebackFn =
      std::function<Status(std::span<const std::pair<uint64_t, void*>> dirty,
                           std::vector<bool>* written)>;

  BufferPool(uint64_t capacity_bytes, WritebackFn writeback);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Look up `id`; returns the cached object (moved to MRU) or nullptr.
  /// The typed wrapper below is the usual entry point.
  std::shared_ptr<void> get_erased(uint64_t id);

  template <typename T>
  std::shared_ptr<T> get(uint64_t id) {
    return std::static_pointer_cast<T>(get_erased(id));
  }

  /// Insert an object charged at `charged_bytes`. The id must not already
  /// be present. May trigger evictions (and dirty writebacks) to fit. The
  /// incoming entry may push past capacity transiently while callers pin a
  /// descent path, but a resident pinned set that alone exceeds capacity
  /// aborts — it means callers are leaking references and the M budget no
  /// longer bounds memory.
  void put(uint64_t id, std::shared_ptr<void> object, uint64_t charged_bytes,
           bool dirty);

  /// Mark a resident entry dirty (id must be present).
  void mark_dirty(uint64_t id);
  bool is_dirty(uint64_t id) const;

  /// Drop an entry without writeback (caller deleted the node). No-op if
  /// absent. The entry must not be pinned by anyone but the caller.
  void erase(uint64_t id);

  /// Optional batched checkpoint path; when set, flush_all() hands all
  /// dirty entries to `fn` in one call instead of one writeback per entry.
  /// Single-entry eviction writebacks still use the per-entry callback.
  void set_batch_writeback(BatchWritebackFn fn) {
    batch_writeback_ = std::move(fn);
  }

  /// Write back every dirty entry (checkpoint); entries stay resident.
  /// On failure the entries whose writeback failed stay dirty (their data
  /// is intact in the pool) and the first failure is returned — calling
  /// again retries exactly the still-dirty set.
  Status flush_all();

  /// Write back and drop everything evictable; CHECKs nothing is pinned.
  /// On writeback failure nothing is dropped and the failure is returned.
  Status clear();

  /// Drop every entry WITHOUT writeback — crash teardown. Dirty state is
  /// lost by design (the caller is abandoning a dead device, and the
  /// destructor's dirty-entry abort must not fire on that path); CHECKs
  /// nothing is pinned. The pool is empty afterwards.
  void discard_all();

  bool contains(uint64_t id) const { return index_.count(id) > 0; }
  uint64_t charged_bytes() const { return charged_bytes_; }
  uint64_t capacity_bytes() const { return capacity_bytes_; }
  size_t entries() const { return index_.size(); }

  /// Bytes charged by entries currently pinned (handle held by a caller).
  /// Pins are implicit shared_ptr refs, so this is computed on demand.
  uint64_t pinned_bytes() const;

  const BufferPoolStats& stats() const {
    stats_.pinned_bytes = pinned_bytes();
    if (stats_.pinned_bytes > stats_.pinned_bytes_hwm) {
      stats_.pinned_bytes_hwm = stats_.pinned_bytes;
    }
    return stats_;
  }
  void clear_stats() { stats_ = BufferPoolStats{}; }

  /// Export hit/miss/eviction counters and byte-budget gauges under
  /// `prefix` (e.g. "btree.cache."). Refreshes the pinned snapshot.
  void export_metrics(stats::MetricsRegistry& reg,
                      std::string_view prefix) const;

 private:
  struct Entry {
    uint64_t id = 0;
    std::shared_ptr<void> object;
    uint64_t bytes = 0;
    bool dirty = false;
  };
  using LruList = std::list<Entry>;

  bool pinned(const Entry& e) const { return e.object.use_count() > 1; }
  /// Write back `e` if dirty. On failure the entry stays dirty (and must
  /// stay resident — its pool copy is the only authoritative one).
  Status writeback(Entry& e);
  /// Evict cold unpinned entries until the budget fits `incoming_bytes`.
  /// Entries whose writeback fails are skipped (kept dirty + resident) and
  /// accounted in writeback_deferred_bytes_.
  void make_room(uint64_t incoming_bytes);

  uint64_t capacity_bytes_;
  WritebackFn writeback_;
  BatchWritebackFn batch_writeback_;
  LruList lru_;  // front = MRU, back = LRU victim candidate
  std::unordered_map<uint64_t, LruList::iterator> index_;
  uint64_t charged_bytes_ = 0;
  // Bytes the latest make_room() could not evict because their writeback
  // failed: unevictable through no fault of the caller, so put()'s
  // pinned-leak abort excludes them from the resident pinned set.
  uint64_t writeback_deferred_bytes_ = 0;
  mutable BufferPoolStats stats_;
};

}  // namespace damkit::cache
