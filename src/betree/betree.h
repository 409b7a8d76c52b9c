// A disk-resident Bε-tree over a simulated device — the "TokuDB" of the
// paper's §7 experiments.
//
// Inserts/deletes/upserts become messages appended to the root's buffer;
// when a node's serialized size exceeds the node size, the buffer of the
// fullest child is flushed down one level (recursing as children
// overflow). Queries collect pending messages for the key on the
// root-to-leaf path and apply them to the leaf state. Node size B and
// target fanout F are the tuning knobs of §6: F ≈ B^ε.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "betree/betree_node.h"
#include "blockdev/block_device.h"
#include "cache/node_cache.h"
#include "kv/dictionary.h"
#include "sim/device.h"
#include "stats/metrics.h"

namespace damkit::betree {

enum class FlushPolicy : uint8_t {
  kFullestChild,  // classic: flush the child with the most pending bytes
  kRoundRobin,    // ablation baseline: rotate through children
};

struct BeTreeConfig {
  uint64_t node_bytes = 1024 * 1024;
  /// Target fanout F. 0 means "choose F = sqrt(B / pivot_estimate)" — the
  /// ε = 1/2 regime the paper calls the B^(1/2)-tree.
  size_t target_fanout = 0;
  uint64_t cache_bytes = 32 * 1024 * 1024;
  FlushPolicy flush_policy = FlushPolicy::kFullestChild;
  uint64_t base_offset = 0;
  /// Estimated key size used only for the default-fanout heuristic.
  size_t pivot_estimate_bytes = 24;
  /// Block codec for stored node images (see blockdev::NodeStore). The
  /// optimized Bε-tree's sub-node charges are scaled by each node's
  /// stored/logical ratio, so Theorem-9 accounting stays consistent.
  blockdev::CodecKind codec = blockdev::CodecKind::kIdentity;
};

struct BeTreeOpStats {
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t erases = 0;
  uint64_t upserts = 0;
  uint64_t scans = 0;
  uint64_t flushes = 0;
  uint64_t leaf_splits = 0;
  uint64_t internal_splits = 0;
  uint64_t leaf_merges = 0;
  uint64_t messages_moved = 0;
  uint64_t logical_bytes_written = 0;
};

class BeTree : public kv::Dictionary {
 public:
  BeTree(sim::Device& dev, sim::IoContext& io, BeTreeConfig config);

  std::string_view name() const override { return "betree"; }
  const kv::Capabilities& capabilities() const override;

  /// Insert or overwrite. Non-OK means some IO along the message path gave
  /// up after retries; the tree stays structurally valid and no previously
  /// acknowledged data is lost, but this message may not have been applied.
  Status try_put(std::string_view key, std::string_view value) override;
  /// Delete (a tombstone message; a Bε-tree delete is blind).
  Status try_erase(std::string_view key) override;
  /// Blind counter increment (8-byte LE semantics, see message.h).
  Status try_upsert(std::string_view key, int64_t delta) override;

  /// Point query.
  StatusOr<std::optional<std::string>> try_get(std::string_view key) override;

  /// Range query: up to `limit` live pairs with key >= lo, in key order.
  StatusOr<std::vector<std::pair<std::string, std::string>>> try_range_scan(
      std::string_view lo, size_t limit) override;

  /// Build from `count` strictly-ascending items; tree must be empty.
  void bulk_load(uint64_t count,
                 const std::function<std::pair<std::string, std::string>(
                     uint64_t)>& item) override;

  /// Write back dirty nodes; failed nodes stay dirty (retried next call).
  Status checkpoint() override { return cache_.flush_all(); }

  /// Crash teardown: drop all cached (possibly dirty) nodes without
  /// writing them back, so a tree over a dead device can be destroyed
  /// without the destructor's flush aborting. Terminal — destroy after.
  void abandon() override { cache_.discard_all(); }

  /// The policy and counters of the IoContext this tree's IO goes through.
  void set_retry_policy(const blockdev::RetryPolicy& policy) override {
    cache_.store().io().set_retry_policy(policy);
  }
  blockdev::RetryCounters retry_counters() const override {
    return cache_.store().io().retry_counters();
  }

  size_t height() const override { return height_; }
  double cache_hit_rate() const override { return cache_.stats().hit_rate(); }
  size_t target_fanout() const { return fanout_; }
  uint64_t nodes_in_use() const { return cache_.store().nodes_in_use(); }
  const BeTreeOpStats& op_stats() const { return op_stats_; }
  const cache::NodeCacheStats& cache_stats() const { return cache_.stats(); }
  const blockdev::NodeStoreStats& store_stats() const {
    return cache_.store().stats();
  }
  const BeTreeConfig& config() const { return config_; }

  /// Structural invariants: key ordering, buffer routing (every buffered
  /// message's key lies in its child's range), size accounting, uniform
  /// leaf depth, fanout bounds.
  void check_invariants() override;

  /// Flush counts by the depth of the flushing node at flush time (root =
  /// 0). Depths are as-of-flush: a later root split does not re-label
  /// earlier flushes.
  const std::vector<uint64_t>& flushes_by_depth() const {
    return flushes_by_depth_;
  }

  /// Export op counters, per-depth flush counts (`<prefix>flushes.depth<d>`),
  /// cache (`<prefix>cache.`), store IO mix (`<prefix>store.`), and write
  /// amplification under `prefix` (e.g. "betree.").
  void export_metrics(stats::MetricsRegistry& reg,
                      std::string_view prefix) const override;

 protected:
  using NodeRef = std::shared_ptr<BeTreeNode>;

  struct SplitInfo {
    std::string separator;
    uint64_t right_id;
  };

  /// Fetch for structural/mutating access (whole-node IO on miss).
  /// OptBeTree refines the IO accounting of partially read nodes.
  virtual StatusOr<NodeRef> try_fetch(uint64_t id) { return cache_.fetch(id); }
  /// Additional flush pressure beyond whole-node overflow. The optimized
  /// Bε-tree caps per-child buffers at B/F (Theorem 9) by overriding this.
  virtual bool flush_pressure(const BeTreeNode& node) const;

  Status root_add(const MessageView& msg);
  /// Restore size/fanout invariants at (id, node); any splits that the
  /// parent must absorb are appended to `out` in ascending key order —
  /// INCLUDING on a non-OK return (the caller must link whatever splits
  /// were produced or their subtrees would be orphaned). `depth` is the
  /// node's distance from the root (flush attribution).
  Status fix_node(uint64_t id, NodeRef node, std::vector<SplitInfo>& out,
                  size_t depth);
  /// Move one child buffer down a level; fixes the child recursively and
  /// absorbs its splits into `node`. The flush is attributed to `depth`.
  Status flush_one(uint64_t id, NodeRef node, size_t depth);
  /// Apply child `child_idx`'s buffered messages to that leaf child of
  /// (parent); may merge/drop the leaf. A failed leaf fetch leaves them
  /// buffered.
  Status apply_to_leaf_child(uint64_t parent_id, NodeRef parent,
                             size_t child_idx, size_t depth);
  Status fix_root();
  Status collapse_root();
  /// Depth-first range collection. `pending` holds the ancestors' buffered
  /// messages for this subtree with key >= lo, as views borrowed from the
  /// buffer segments of the nodes pinned by the enclosing frames, deepest
  /// level first and arrival order within a level. Each internal node
  /// prepends its own buffer's views and filters by child range; a leaf
  /// sorts them by key in place and merges them with its entries, stopping
  /// at `limit` rows. Returns true once `limit` pairs have been emitted.
  StatusOr<bool> scan_rec(
      uint64_t id, std::string_view lo, size_t limit,
      std::vector<MessageView>& pending,
      std::vector<std::pair<std::string, std::string>>* out);

  /// A point query's result: `state` (the leaf's value for the key) with
  /// the messages collected on the key's path applied. `path` holds one
  /// segment per internal level, root first; deeper buffers are older, so
  /// the deepest level goes first, each in arrival order.
  static std::optional<std::string> apply_path(
      std::optional<std::string> state, std::span<const MsgSegment> path);

  bool overflowing(const BeTreeNode& n) const {
    return n.byte_size() > config_.node_bytes;
  }
  size_t pick_flush_child(const BeTreeNode& n);

  void check_subtree(uint64_t id, const std::string* lo, const std::string* hi,
                     size_t depth, size_t leaf_depth, uint64_t* live);

  BeTreeConfig config_;
  size_t fanout_;
  cache::NodeCache<BeTreeNode> cache_;

  uint64_t root_ = kInvalidNode;
  size_t height_ = 0;
  BeTreeOpStats op_stats_;
  std::vector<uint64_t> flushes_by_depth_;  // index = flushing node's depth
  size_t round_robin_cursor_ = 0;
};

}  // namespace damkit::betree
