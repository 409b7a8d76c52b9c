// A disk-resident B-tree (B+-tree variant) over a simulated device.
//
// This is the "BerkeleyDB" stand-in of the paper's §7 experiments: nodes
// are the unit of IO (read and written whole), the node size is the
// central tuning knob, and a byte-budgeted buffer pool plays the role of
// RAM (the M of the models). All IO passes through the owning IoContext,
// so `io.now()` advances by exactly the simulated device time the
// workload would take.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "blockdev/block_device.h"
#include "btree/btree_node.h"
#include "cache/node_cache.h"
#include "kv/dictionary.h"
#include "sim/device.h"

namespace damkit::btree {

struct BTreeConfig {
  uint64_t node_bytes = 64 * 1024;
  uint64_t cache_bytes = 32 * 1024 * 1024;
  /// Device offset where this tree's extents begin.
  uint64_t base_offset = 0;
  /// Block codec for stored node images (see blockdev::NodeStore): node
  /// writes become partial-extent IOs of the compressed frame, shrinking
  /// the transfer term while layout and setup cost are unchanged.
  blockdev::CodecKind codec = blockdev::CodecKind::kIdentity;
};

struct BTreeOpStats {
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t erases = 0;
  uint64_t scans = 0;
  uint64_t splits = 0;
  uint64_t merges = 0;
  uint64_t borrows = 0;
  uint64_t logical_bytes_written = 0;  // key+value bytes the user modified
};

class BTree final : public kv::Dictionary {
 public:
  BTree(sim::Device& dev, sim::IoContext& io, BTreeConfig config);

  std::string_view name() const override { return "btree"; }
  const kv::Capabilities& capabilities() const override;

  /// Insert or overwrite. Non-OK means the tree was not modified, except
  /// that an error during split propagation may leave a node transiently
  /// overflowing — reads stay correct and a later put retries the split.
  Status try_put(std::string_view key, std::string_view value) override;

  /// Point query; the value if present.
  StatusOr<std::optional<std::string>> try_get(std::string_view key) override;

  /// Delete. A non-OK status after the key was already removed (rebalance
  /// IO failed) still reports the error; the tree stays valid but may be
  /// transiently under-filled.
  Status try_erase(std::string_view key) override;

  /// No native upsert: read-modify-write of the counter (try_get, then
  /// try_put), so a failed read leaves the key untouched.
  Status try_upsert(std::string_view key, int64_t delta) override;

  /// Range query: up to `limit` pairs with key >= `lo`, in key order.
  StatusOr<std::vector<std::pair<std::string, std::string>>> try_range_scan(
      std::string_view lo, size_t limit) override;

  /// Build the tree from `count` items in strictly ascending key order;
  /// item(i) supplies the i-th pair. The tree must be empty. Nodes are
  /// written once each, bottom-up.
  void bulk_load(uint64_t count,
                 const std::function<std::pair<std::string, std::string>(
                     uint64_t)>& item) override;

  /// Write back dirty nodes: failed nodes stay dirty in the cache (no data
  /// loss); calling again retries exactly the still-dirty set.
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

  uint64_t size() const { return size_; }
  size_t height() const override { return height_; }
  double cache_hit_rate() const override { return cache_.stats().hit_rate(); }
  uint64_t nodes_in_use() const { return cache_.store().nodes_in_use(); }
  const BTreeOpStats& op_stats() const { return op_stats_; }
  const cache::NodeCacheStats& cache_stats() const { return cache_.stats(); }
  const blockdev::NodeStoreStats& store_stats() const {
    return cache_.store().stats();
  }
  const BTreeConfig& config() const { return config_; }

  /// Structural invariant check (test support): key order within and
  /// across nodes, child counts, leaf chain consistency, size accounting.
  void check_invariants() override;

  /// Export op counters, cache (`<prefix>cache.`), node-store IO mix
  /// (`<prefix>store.`), and derived gauges (write amplification vs the
  /// device bytes this tree's store moved) under `prefix` (e.g. "btree.").
  void export_metrics(stats::MetricsRegistry& reg,
                      std::string_view prefix) const override;

 private:
  using NodeRef = std::shared_ptr<BTreeNode>;

  /// Bulk-load leaf/internal fill (§7 loads the data set first) and the
  /// underflow threshold, as fractions of node_bytes.
  static constexpr double kBulkFill = 0.85;
  static constexpr double kMinFill = 0.25;

  struct PathEntry {
    uint64_t id;
    NodeRef node;
    size_t child_idx;  // which child we descended into
  };
  /// Descend to the leaf for `key`, recording the internal path.
  Status descend(std::string_view key, uint64_t* leaf_id,
                 std::vector<PathEntry>* path, NodeRef* leaf);

  Status split_upward(std::vector<PathEntry>& path, uint64_t node_id,
                      NodeRef node);
  Status rebalance_upward(std::vector<PathEntry>& path, uint64_t node_id,
                          NodeRef node);

  bool overflowing(const BTreeNode& n) const {
    return n.byte_size() > config_.node_bytes;
  }
  bool underflowing(const BTreeNode& n) const {
    return static_cast<double>(n.byte_size()) <
           kMinFill * static_cast<double>(config_.node_bytes);
  }

  void check_subtree(uint64_t id, const std::string* lo, const std::string* hi,
                     size_t depth, size_t leaf_depth, uint64_t* entries,
                     uint64_t* leftmost_leaf);

  BTreeConfig config_;
  cache::NodeCache<BTreeNode> cache_;

  uint64_t root_ = kInvalidNode;
  size_t height_ = 0;  // number of levels (1 = just a leaf root)
  uint64_t size_ = 0;  // live key count
  BTreeOpStats op_stats_;
};

}  // namespace damkit::btree
