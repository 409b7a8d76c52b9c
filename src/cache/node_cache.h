// NodeCache: the trees' buffer pool — the "M" of the DAM/affine/PDAM
// models — and the one place a tree node moves between device and memory.
//
// A NodeCache<Node> owns its tree's NodeStore and keeps deserialized nodes
// (an object cache, like TokuDB's cachetable, rather than a page cache)
// under a byte budget, evicting cold, unpinned entries LRU-first. It runs
// the node life cycle every tree shares: a miss reads the whole extent and
// parses it, a dirty eviction serializes the node and writes it as one
// scalar IO, and a checkpoint writes every dirty node as one device batch.
// Each costs one host copy of the image besides the device's own: a miss
// reads into a fresh buffer that the parsed node adopts, and a write
// serializes into the IO buffer that the store pads in place.
// Pinning is implicit: an entry whose handle is still held by a caller
// (shared_ptr use_count > 1) is never evicted.
//
// Node provides `void serialize(ByteBuffer&) const` and
// `static std::shared_ptr<Node> deserialize(ByteBuffer&&)`, which parses a
// padded extent image and may adopt the buffer as the node's storage.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "blockdev/block_device.h"
#include "stats/metrics.h"
#include "util/bytes.h"
#include "util/status.h"

namespace damkit::cache {

struct NodeCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;
  uint64_t writeback_failures = 0;  // failed attempts; entry stays dirty
  uint64_t inserted = 0;
  uint64_t pinned_bytes = 0;       // snapshot, refreshed by stats()
  uint64_t charged_bytes_hwm = 0;  // high-water of charged bytes
  /// High-water of pinned bytes. Pins are implicit shared_ptr refs, so
  /// this is sampled where the cache already walks entries (eviction
  /// scans, stats() calls) rather than recomputed per operation — treat it
  /// as a lower bound on the true peak.
  uint64_t pinned_bytes_hwm = 0;

  double hit_rate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

template <typename Node>
class NodeCache {
 public:
  using NodeRef = std::shared_ptr<Node>;

  /// Carves `dev` (from `base_offset` up) into `node_bytes` extents, see
  /// blockdev::NodeStore, and caches up to `capacity_bytes` of charged
  /// nodes. The IoContext is borrowed; it must outlive the cache.
  NodeCache(sim::Device& dev, sim::IoContext& io, uint64_t node_bytes,
            uint64_t capacity_bytes, uint64_t base_offset,
            blockdev::CodecKind codec)
      : store_(dev, io, node_bytes, base_offset, codec),
        capacity_bytes_(capacity_bytes) {
    DAMKIT_CHECK(capacity_bytes_ > 0);
  }

  /// Writes back every dirty node and aborts if that fails; a cache over a
  /// dead device must discard_all() first.
  ~NodeCache() { DAMKIT_CHECK_OK(flush_all()); }

  NodeCache(const NodeCache&) = delete;
  NodeCache& operator=(const NodeCache&) = delete;

  blockdev::NodeStore& store() { return store_; }
  const blockdev::NodeStore& store() const { return store_; }

  /// The resident node `id`, moved to MRU, or nullptr. Counts a hit or a
  /// miss; a caller that then reads the node itself put()s it.
  NodeRef lookup(uint64_t id) {
    const auto it = index_.find(id);
    if (it == index_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->node;
  }

  /// The node `id`. A miss reads the whole extent (one scalar IO), parses
  /// it and inserts it clean, charged a full node.
  StatusOr<NodeRef> fetch(uint64_t id) {
    if (NodeRef cached = lookup(id)) return cached;
    ByteBuffer image;
    DAMKIT_RETURN_IF_ERROR(store_.try_read_node(id, image));
    NodeRef node = Node::deserialize(std::move(image));
    put(id, node, store_.node_bytes(), /*dirty=*/false);
    return node;
  }

  /// Read the non-resident nodes among `ids` as one device batch and
  /// insert them clean. Skipped when fewer than two are missing: a batch
  /// of one gains nothing over the fetch() the caller does next.
  Status prefetch(std::span<const uint64_t> ids) {
    std::vector<uint64_t> missing;
    for (const uint64_t id : ids) {
      if (!contains(id)) missing.push_back(id);
    }
    if (missing.size() < 2) return Status();
    std::vector<ByteBuffer> images;
    DAMKIT_RETURN_IF_ERROR(store_.try_read_nodes(missing, images));
    for (size_t i = 0; i < missing.size(); ++i) {
      put(missing[i], Node::deserialize(std::move(images[i])),
          store_.node_bytes(), /*dirty=*/false);
    }
    return Status();
  }

  /// Insert a node the caller just created: dirty, charged a full node.
  void install(uint64_t id, NodeRef node) {
    put(id, std::move(node), store_.node_bytes(), /*dirty=*/true);
  }

  /// Insert `node` as MRU, charged at `charged_bytes`; the id must not be
  /// resident. May evict (writing dirty victims back) to fit. The incoming
  /// entry may push past capacity transiently while callers pin a descent
  /// path, but a resident pinned set that alone exceeds capacity aborts —
  /// it means callers are leaking references and M no longer bounds
  /// memory.
  void put(uint64_t id, NodeRef node, uint64_t charged_bytes, bool dirty) {
    DAMKIT_CHECK(node != nullptr);
    DAMKIT_CHECK_MSG(index_.find(id) == index_.end(),
                     "put of already-resident id " << id);
    make_room(charged_bytes);
    // Entries kept resident only because their writeback failed are not
    // caller leaks and are excluded from the abort condition.
    if (charged_bytes_ + charged_bytes > capacity_bytes_) {
      DAMKIT_CHECK_MSG(
          charged_bytes_ - writeback_deferred_bytes_ <= capacity_bytes_,
          "NodeCache pinned set exceeds capacity: pinned="
              << charged_bytes_ << " > capacity=" << capacity_bytes_
              << " (callers hold too many references; incoming id=" << id
              << " bytes=" << charged_bytes << ")");
    }
    lru_.push_front(Entry{id, std::move(node), charged_bytes, dirty});
    index_[id] = lru_.begin();
    charged_bytes_ += charged_bytes;
    if (charged_bytes_ > stats_.charged_bytes_hwm) {
      stats_.charged_bytes_hwm = charged_bytes_;
    }
    ++stats_.inserted;
  }

  /// Re-insert resident `id` at a new charge, exactly as erasing it and
  /// put()ting it again: it becomes MRU and may evict others to fit. The
  /// dirty bit is kept.
  void recharge(uint64_t id, uint64_t charged_bytes) {
    const auto it = index_.find(id);
    DAMKIT_CHECK_MSG(it != index_.end(), "recharge of absent id " << id);
    NodeRef node = std::move(it->second->node);
    const bool dirty = it->second->dirty;
    erase(it);
    put(id, std::move(node), charged_bytes, dirty);
  }

  /// Mark a resident entry dirty (id must be present).
  void mark_dirty(uint64_t id) {
    const auto it = index_.find(id);
    DAMKIT_CHECK_MSG(it != index_.end(), "mark_dirty of absent id " << id);
    it->second->dirty = true;
  }
  bool is_dirty(uint64_t id) const {
    const auto it = index_.find(id);
    return it != index_.end() && it->second->dirty;
  }

  /// The caller deleted node `id`: drop it without writeback (if
  /// resident) and free its extent.
  void drop(uint64_t id) {
    const auto it = index_.find(id);
    if (it != index_.end()) erase(it);
    store_.free(id);
  }

  /// Serialize `node` into extent `id` as one scalar write, bypassing the
  /// cache: bulk load writes each node once and leaves it cold.
  Status write_through(uint64_t id, const Node& node) {
    node.serialize(write_buf_);
    return store_.try_write_node(id, write_buf_);
  }

  /// Checkpoint: write every dirty node, MRU→LRU, as one device batch;
  /// entries stay resident. Entries whose write failed stay dirty (their
  /// data is intact here) and the first failure is returned, so calling
  /// again retries exactly the still-dirty set.
  Status flush_all() {
    std::vector<typename LruList::iterator> dirty;
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (it->dirty) dirty.push_back(it);
    }
    if (dirty.empty()) return Status();
    std::vector<ByteBuffer> images(dirty.size());
    std::vector<blockdev::NodeStore::NodeImage> writes;
    writes.reserve(dirty.size());
    for (size_t i = 0; i < dirty.size(); ++i) {
      // Room for the padding up front: a ByteBuffer that outgrows its
      // capacity moves its bytes one at a time.
      images[i].reserve(store_.node_bytes());
      dirty[i]->node->serialize(images[i]);
      writes.push_back({dirty[i]->id, &images[i]});
    }
    std::vector<bool> written;
    const Status s = store_.try_write_nodes(writes, &written);
    for (size_t i = 0; i < dirty.size(); ++i) {
      if (written[i]) {
        dirty[i]->dirty = false;
        ++stats_.dirty_writebacks;
      } else {
        ++stats_.writeback_failures;
      }
    }
    return s;
  }

  /// Drop every entry WITHOUT writeback — crash teardown. Dirty state is
  /// lost by design (the caller is abandoning a dead device, and the
  /// destructor's flush must not run against it); CHECKs nothing is
  /// pinned. The cache is empty afterwards.
  void discard_all() {
    for (const Entry& e : lru_) {
      DAMKIT_CHECK_MSG(!pinned(e),
                       "discard_all() with pinned entry id=" << e.id);
    }
    lru_.clear();
    index_.clear();
    charged_bytes_ = 0;
    writeback_deferred_bytes_ = 0;
  }

  bool contains(uint64_t id) const { return index_.count(id) > 0; }
  uint64_t charged_bytes() const { return charged_bytes_; }

  /// Bytes charged by entries currently pinned (handle held by a caller).
  /// Pins are implicit shared_ptr refs, so this is computed on demand.
  uint64_t pinned_bytes() const {
    uint64_t total = 0;
    for (const Entry& e : lru_) {
      if (pinned(e)) total += e.bytes;
    }
    return total;
  }

  const NodeCacheStats& stats() const {
    stats_.pinned_bytes = pinned_bytes();
    if (stats_.pinned_bytes > stats_.pinned_bytes_hwm) {
      stats_.pinned_bytes_hwm = stats_.pinned_bytes;
    }
    return stats_;
  }

  /// Export the cache counters and byte-budget gauges under
  /// `<prefix>cache.` and the node-store IO mix under `<prefix>store.`.
  void export_metrics(stats::MetricsRegistry& reg,
                      std::string_view prefix) const {
    const NodeCacheStats& st = stats();  // refreshes the pinned snapshot
    const std::string p = std::string(prefix) + "cache.";
    reg.add(p + "hits", st.hits);
    reg.add(p + "misses", st.misses);
    reg.add(p + "evictions", st.evictions);
    reg.add(p + "dirty_writebacks", st.dirty_writebacks);
    reg.add(p + "writeback_failures", st.writeback_failures);
    reg.add(p + "inserted", st.inserted);
    reg.set(p + "hit_rate", st.hit_rate());
    reg.set(p + "capacity_bytes", static_cast<double>(capacity_bytes_));
    reg.set(p + "charged_bytes", static_cast<double>(charged_bytes_));
    reg.set(p + "charged_bytes_hwm", static_cast<double>(st.charged_bytes_hwm));
    reg.set(p + "pinned_bytes", static_cast<double>(st.pinned_bytes));
    reg.set(p + "pinned_bytes_hwm", static_cast<double>(st.pinned_bytes_hwm));
    store_.export_metrics(reg, std::string(prefix) + "store.");
  }

 private:
  struct Entry {
    uint64_t id = 0;
    NodeRef node;
    uint64_t bytes = 0;
    bool dirty = false;
  };
  using LruList = std::list<Entry>;
  using Index = std::unordered_map<uint64_t, typename LruList::iterator>;

  static bool pinned(const Entry& e) { return e.node.use_count() > 1; }

  void erase(typename Index::iterator it) {
    charged_bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }

  /// Write `e` back if dirty, as one scalar IO. On failure the entry stays
  /// dirty and must stay resident: the cached copy is the only good one.
  Status writeback(Entry& e) {
    if (!e.dirty) return Status();
    e.node->serialize(write_buf_);
    const Status s = store_.try_write_node(e.id, write_buf_);
    if (!s.ok()) {
      ++stats_.writeback_failures;
      return s;
    }
    e.dirty = false;
    ++stats_.dirty_writebacks;
    return Status();
  }

  /// Evict cold unpinned entries until the budget fits `incoming_bytes`.
  /// Entries whose writeback fails are skipped (kept dirty and resident)
  /// and accounted in writeback_deferred_bytes_.
  void make_room(uint64_t incoming_bytes) {
    writeback_deferred_bytes_ = 0;
    if (charged_bytes_ + incoming_bytes <= capacity_bytes_) return;
    // Walk from the cold end, skipping pinned entries. If everything is
    // pinned the cache runs over budget — by design it never deadlocks;
    // the trees pin only O(height) nodes at a time.
    auto it = lru_.end();
    uint64_t pinned_seen = 0;  // opportunistic pinned high-water sample
    while (charged_bytes_ + incoming_bytes > capacity_bytes_ &&
           it != lru_.begin()) {
      --it;
      if (pinned(*it)) {
        pinned_seen += it->bytes;
        continue;
      }
      if (!writeback(*it).ok()) {
        // A later eviction or flush retries; try the next victim.
        writeback_deferred_bytes_ += it->bytes;
        continue;
      }
      charged_bytes_ -= it->bytes;
      index_.erase(it->id);
      it = lru_.erase(it);
      ++stats_.evictions;
    }
    if (pinned_seen > stats_.pinned_bytes_hwm) {
      stats_.pinned_bytes_hwm = pinned_seen;
    }
  }

  blockdev::NodeStore store_;
  uint64_t capacity_bytes_;
  LruList lru_;  // front = MRU, back = LRU victim candidate
  Index index_;
  uint64_t charged_bytes_ = 0;
  // Bytes the latest make_room() could not evict because their writeback
  // failed: unevictable through no fault of the caller, so put()'s
  // pinned-leak abort excludes them from the resident pinned set.
  uint64_t writeback_deferred_bytes_ = 0;
  mutable NodeCacheStats stats_;
  ByteBuffer write_buf_;  // IO buffer for scalar node writes
};

}  // namespace damkit::cache
