#include "betree_opt/opt_betree.h"

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/bytes.h"

namespace damkit::betree_opt {

using betree::BeTreeNode;
using betree::kInvalidNode;

OptBeTree::OptBeTree(sim::Device& dev, sim::IoContext& io,
                     betree::BeTreeConfig config)
    : BeTree(dev, io, config) {
  segment_cap_ = std::max<uint64_t>(config_.node_bytes / target_fanout(), 512);
}

bool OptBeTree::flush_pressure(const BeTreeNode& node) const {
  if (node.is_leaf()) return false;
  return node.buffer_bytes(node.fullest_child()) > dynamic_cap(node);
}

uint64_t OptBeTree::dynamic_cap(const BeTreeNode& node) const {
  // Theorem 9 caps each buffer segment at B/F. Its weight-balanced
  // rebuilds keep every node's fanout at (1±o(1))F, so B/F is also each
  // child's fair share of a full buffer. Our size-based splitter lets
  // under-full nodes (child_count ≪ F, e.g. near the root of a small
  // tree) exist; capping those at B/F would flush 1/child_count-th of
  // the theorem's batch size and destroy insert amortization. Cap at the
  // fair share instead — for full-fanout nodes the two coincide.
  const uint64_t fair_share =
      config_.node_bytes / (2 * std::max<size_t>(node.child_count(), 1));
  return std::max(segment_cap_, fair_share);
}

uint64_t OptBeTree::index_block_bytes(const BeTreeNode& node) const {
  // The node's index region: header + child table + pivot keys. This is
  // the αF term of Theorem 9; the buffer segment on the query path
  // (bounded by the flush cap) is the αB/F term.
  return node.byte_size() - node.total_buffer_bytes();
}

uint64_t OptBeTree::leaf_segment_bytes(const BeTreeNode& leaf) const {
  // Basement-node read: one B/F chunk of the leaf (or the whole leaf if
  // it is smaller than a chunk).
  return std::min<uint64_t>(leaf.byte_size(), segment_cap_);
}

uint32_t OptBeTree::leaf_chunk_of(const BeTreeNode& leaf,
                                  std::string_view key) const {
  if (leaf.entry_count() == 0) return 0;
  const uint64_t chunk_bytes = leaf_segment_bytes(leaf);
  const uint64_t chunks =
      std::max<uint64_t>(1, (leaf.byte_size() + chunk_bytes - 1) / chunk_bytes);
  const size_t pos = leaf.lower_bound(key);
  return static_cast<uint32_t>(
      std::min<uint64_t>(chunks - 1, pos * chunks / (leaf.entry_count() + 1)));
}

StatusOr<OptBeTree::NodeRef> OptBeTree::try_fetch(uint64_t id) {
  StatusOr<NodeRef> node_or = BeTree::try_fetch(id);
  DAMKIT_RETURN_IF_ERROR(node_or.status());
  NodeRef node = *std::move(node_or);
  if (!node->residency.partial) return node;
  // Structural access needs the full node: charge the bytes the query
  // path skipped, then re-account the cache entry at full size.
  const uint64_t charged =
      std::min<uint64_t>(node->residency.charged_bytes, config_.node_bytes);
  const uint64_t remainder = config_.node_bytes - charged;
  if (remainder > 0) {
    DAMKIT_RETURN_IF_ERROR(
        cache_.store().try_touch_read(id, charged, remainder));
  }
  node->residency = BeTreeNode::Residency{};
  ++opt_stats_.residency_upgrades;
  cache_.recharge(id, config_.node_bytes);
  return node;
}

Status OptBeTree::charge_segment(uint64_t id, const NodeRef& node,
                                 uint32_t seg, std::span<const IoPart> parts,
                                 bool newly_loaded) {
  // All parts of one descent step go out as a single batch: the pivot
  // block and the buffer segment are known together (the parent's pivot
  // block delivered both addresses), so the device may overlap them.
  std::vector<blockdev::NodeStore::NodeSpan> spans;
  spans.reserve(parts.size());
  uint64_t total = 0;
  for (const IoPart& p : parts) {
    if (p.length == 0) continue;
    const uint64_t len = std::min<uint64_t>(p.length, config_.node_bytes);
    const uint64_t offset =
        std::min<uint64_t>(p.offset, config_.node_bytes - len);
    spans.push_back({id, offset, len});
    total += len;
  }
  DAMKIT_RETURN_IF_ERROR(cache_.store().try_touch_read_batch(spans));
  opt_stats_.segment_reads += spans.size();
  opt_stats_.segment_bytes_read += total;

  node->residency.partial = true;
  node->residency.charged_bytes =
      std::min<uint64_t>(node->residency.charged_bytes + total,
                         config_.node_bytes);
  node->residency.segments.push_back(seg);

  if (newly_loaded) {
    cache_.put(id, node, node->residency.charged_bytes, /*dirty=*/false);
  } else {
    // Re-account at the grown charge (entry stays clean: mutations always
    // upgrade to full residency before dirtying).
    cache_.recharge(id, node->residency.charged_bytes);
  }
  return Status();
}

StatusOr<std::optional<std::string>> OptBeTree::try_get(std::string_view key) {
  ++op_stats_.gets;
  if (root_ == kInvalidNode) return std::optional<std::string>();

  std::vector<betree::MsgSegment> path;  // the key's records, root first
  uint64_t id = root_;
  std::optional<std::string> result_state;
  for (;;) {
    NodeRef node = cache_.lookup(id);
    bool newly_loaded = false;
    if (node == nullptr) {
      // Deserialize first; the IO size to charge depends on which child
      // the descent takes (the parent's pivot block told the real system
      // this before the IO was issued).
      ByteBuffer image;
      DAMKIT_RETURN_IF_ERROR(cache_.store().peek_node(id, image));
      node = BeTreeNode::deserialize(std::move(image));
      newly_loaded = true;
    }

    if (node->is_leaf()) {
      const uint32_t chunk = leaf_chunk_of(*node, key);
      const bool need_charge =
          newly_loaded ||
          (node->residency.partial && !node->residency.has_segment(chunk));
      if (need_charge) {
        const uint64_t len = leaf_segment_bytes(*node);
        const uint64_t hint = static_cast<uint64_t>(chunk) * len;
        const IoPart part{hint, len};
        DAMKIT_RETURN_IF_ERROR(
            charge_segment(id, node, chunk, {&part, 1}, newly_loaded));
      }
      const size_t i = node->lower_bound(key);
      if (node->key_equals(i, key)) result_state = node->value(i);
      break;
    }

    const size_t idx = node->child_index(key);
    const bool need_charge =
        newly_loaded ||
        (node->residency.partial &&
         !node->residency.has_segment(static_cast<uint32_t>(idx)));
    if (need_charge) {
      // Pivot block at the extent head + the one buffer segment on the
      // query path, issued together as a two-request batch.
      const uint64_t hint = (config_.node_bytes * idx) / node->child_count();
      const IoPart parts[] = {{0, index_block_bytes(*node)},
                              {hint, node->buffer_bytes(idx)}};
      DAMKIT_RETURN_IF_ERROR(charge_segment(
          id, node, static_cast<uint32_t>(idx), parts, newly_loaded));
    }
    node->collect_for_key(idx, key, &path.emplace_back());
    id = node->child(idx);
  }
  return apply_path(std::move(result_state), path);
}

void OptBeTree::export_metrics(stats::MetricsRegistry& reg,
                               std::string_view prefix) const {
  BeTree::export_metrics(reg, prefix);
  const std::string p(prefix);
  reg.add(p + "segment_reads", opt_stats_.segment_reads);
  reg.add(p + "segment_bytes_read", opt_stats_.segment_bytes_read);
  reg.add(p + "residency_upgrades", opt_stats_.residency_upgrades);
  reg.set(p + "segment_cap_bytes", static_cast<double>(segment_cap_));
  if (opt_stats_.segment_reads > 0) {
    reg.set(p + "mean_segment_read_bytes",
            static_cast<double>(opt_stats_.segment_bytes_read) /
                static_cast<double>(opt_stats_.segment_reads));
  }
}

}  // namespace damkit::betree_opt
