#include "btree/btree.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "kv/slice.h"
#include "node/record.h"

namespace damkit::btree {

BTree::BTree(sim::Device& dev, sim::IoContext& io, BTreeConfig config)
    : config_(config),
      cache_(dev, io, config.node_bytes, config.cache_bytes, config.base_offset,
             config.codec) {
  DAMKIT_CHECK(config_.node_bytes >= 512);
  DAMKIT_CHECK(config_.cache_bytes >= config_.node_bytes);
}

const kv::Capabilities& BTree::capabilities() const {
  static constexpr kv::Capabilities kCaps{};  // RMW upsert, native bulk load
  return kCaps;
}

Status BTree::descend(std::string_view key, uint64_t* leaf_id,
                      std::vector<PathEntry>* path, NodeRef* leaf) {
  uint64_t id = root_;
  StatusOr<NodeRef> node = cache_.fetch(id);
  DAMKIT_RETURN_IF_ERROR(node.status());
  while (!(*node)->is_leaf()) {
    const size_t idx = (*node)->child_index(key);
    if (path != nullptr) path->push_back({id, *node, idx});
    id = (*node)->child(idx);
    node = cache_.fetch(id);
    DAMKIT_RETURN_IF_ERROR(node.status());
  }
  *leaf_id = id;
  *leaf = *std::move(node);
  return Status();
}

Status BTree::try_put(std::string_view key, std::string_view value) {
  DAMKIT_RETURN_IF_ERROR(node::check_key_size(key));
  // A leaf must hold two entries or splitting cannot make progress.
  if (node::KvRecord::encoded_size(key.size(), value.size()) >
      config_.node_bytes / 2) {
    return Status::invalid_argument("entry too large for half a node");
  }
  ++op_stats_.puts;
  op_stats_.logical_bytes_written += key.size() + value.size();
  if (root_ == kInvalidNode) {
    StatusOr<uint64_t> id = cache_.store().try_allocate();
    DAMKIT_RETURN_IF_ERROR(id.status());
    root_ = *id;
    cache_.install(root_, BTreeNode::make_leaf());
    height_ = 1;
  }
  std::vector<PathEntry> path;
  uint64_t leaf_id;
  NodeRef leaf;
  DAMKIT_RETURN_IF_ERROR(descend(key, &leaf_id, &path, &leaf));
  if (leaf->leaf_put(key, value)) ++size_;
  cache_.mark_dirty(leaf_id);
  if (overflowing(*leaf)) return split_upward(path, leaf_id, leaf);
  return Status();
}

Status BTree::split_upward(std::vector<PathEntry>& path, uint64_t node_id,
                           NodeRef node) {
  while (overflowing(*node)) {
    // Reserve every extent this round needs BEFORE mutating any node, so
    // an allocation failure leaves the tree structurally intact (the node
    // stays overflowing; a later put retries the split).
    StatusOr<uint64_t> right_alloc = cache_.store().try_allocate();
    DAMKIT_RETURN_IF_ERROR(right_alloc.status());
    const uint64_t right_id = *right_alloc;
    uint64_t new_root = kInvalidNode;
    if (path.empty()) {
      StatusOr<uint64_t> root_alloc = cache_.store().try_allocate();
      if (!root_alloc.ok()) {
        cache_.store().free(right_id);
        return root_alloc.status();
      }
      new_root = *root_alloc;
    }

    ++op_stats_.splits;
    BTreeNode::SplitResult split = node->split();
    if (node->is_leaf()) node->set_next_leaf(right_id);
    cache_.install(right_id, split.right);
    cache_.mark_dirty(node_id);

    if (path.empty()) {
      // Grow a new root above.
      NodeRef root = BTreeNode::make_internal();
      root->internal_init(node_id);
      root->internal_insert(0, std::move(split.separator), right_id);
      cache_.install(new_root, root);
      root_ = new_root;
      ++height_;
      return Status();
    }

    PathEntry parent = path.back();
    path.pop_back();
    parent.node->internal_insert(parent.child_idx, std::move(split.separator),
                                 right_id);
    cache_.mark_dirty(parent.id);
    node = parent.node;
    node_id = parent.id;
  }
  return Status();
}

StatusOr<std::optional<std::string>> BTree::try_get(std::string_view key) {
  ++op_stats_.gets;
  if (root_ == kInvalidNode) return std::optional<std::string>();
  uint64_t leaf_id;
  NodeRef leaf;
  DAMKIT_RETURN_IF_ERROR(descend(key, &leaf_id, nullptr, &leaf));
  const size_t i = leaf->lower_bound(key);
  if (!leaf->key_equals(i, key)) return std::optional<std::string>();
  return std::optional<std::string>(std::string(leaf->value(i)));
}

Status BTree::try_erase(std::string_view key) {
  DAMKIT_RETURN_IF_ERROR(node::check_key_size(key));
  ++op_stats_.erases;
  if (root_ == kInvalidNode) return Status();
  std::vector<PathEntry> path;
  uint64_t leaf_id;
  NodeRef leaf;
  DAMKIT_RETURN_IF_ERROR(descend(key, &leaf_id, &path, &leaf));
  if (!leaf->leaf_erase(key)) return Status();
  --size_;
  op_stats_.logical_bytes_written += key.size();
  cache_.mark_dirty(leaf_id);
  if (underflowing(*leaf) && !path.empty()) {
    // The key is already gone; a rebalance failure leaves the tree valid
    // but under-filled, and the error is still surfaced to the caller.
    return rebalance_upward(path, leaf_id, leaf);
  }
  return Status();
}

Status BTree::try_upsert(std::string_view key, int64_t delta) {
  DAMKIT_RETURN_IF_ERROR(node::check_key_size(key));
  StatusOr<std::optional<std::string>> current = try_get(key);
  DAMKIT_RETURN_IF_ERROR(current.status());
  return try_put(key, kv::add_to_counter(*current, delta));
}

Status BTree::rebalance_upward(std::vector<PathEntry>& path, uint64_t node_id,
                               NodeRef node) {
  while (underflowing(*node) && !path.empty()) {
    PathEntry parent = path.back();
    path.pop_back();

    // Pair the node with a sibling: prefer the right one.
    size_t left_idx;
    uint64_t left_id, right_id;
    NodeRef left, right;
    if (parent.child_idx + 1 < parent.node->child_count()) {
      left_idx = parent.child_idx;
      left_id = node_id;
      left = node;
      right_id = parent.node->child(left_idx + 1);
      StatusOr<NodeRef> sib = cache_.fetch(right_id);
      DAMKIT_RETURN_IF_ERROR(sib.status());
      right = *std::move(sib);
    } else {
      DAMKIT_CHECK(parent.child_idx > 0);
      left_idx = parent.child_idx - 1;
      left_id = parent.node->child(left_idx);
      StatusOr<NodeRef> sib = cache_.fetch(left_id);
      DAMKIT_RETURN_IF_ERROR(sib.status());
      left = *std::move(sib);
      right_id = node_id;
      right = node;
    }
    const std::string separator(parent.node->pivot(left_idx));

    uint64_t merged = left->byte_size() + right->byte_size() -
                      BTreeNode::header_bytes();
    if (!left->is_leaf()) {
      merged += node::PivotRecord::encoded_size(separator.size());
    }

    if (merged <= config_.node_bytes) {
      ++op_stats_.merges;
      left->merge_from_right(*right, separator);
      parent.node->internal_remove(left_idx);
      cache_.mark_dirty(left_id);
      cache_.mark_dirty(parent.id);
      cache_.drop(right_id);
    } else {
      ++op_stats_.borrows;
      std::string new_sep = left->borrow_balance(*right, separator);
      parent.node->internal_set_pivot(left_idx, std::move(new_sep));
      cache_.mark_dirty(left_id);
      cache_.mark_dirty(right_id);
      cache_.mark_dirty(parent.id);
      // Borrowing fixes the pair locally; the parent's size is unchanged,
      // so no further propagation is needed.
      break;
    }

    node = parent.node;
    node_id = parent.id;
  }

  // Collapse trivial roots: an internal root with one child.
  while (height_ > 1) {
    StatusOr<NodeRef> root = cache_.fetch(root_);
    DAMKIT_RETURN_IF_ERROR(root.status());
    if ((*root)->is_leaf() || (*root)->child_count() > 1) break;
    const uint64_t only_child = (*root)->child(0);
    cache_.drop(root_);
    root_ = only_child;
    --height_;
  }
  return Status();
}

StatusOr<std::vector<std::pair<std::string, std::string>>>
BTree::try_range_scan(std::string_view lo, size_t limit) {
  ++op_stats_.scans;
  std::vector<std::pair<std::string, std::string>> out;
  if (root_ == kInvalidNode || limit == 0) return out;
  uint64_t leaf_id;
  NodeRef leaf;
  DAMKIT_RETURN_IF_ERROR(descend(lo, &leaf_id, nullptr, &leaf));
  size_t i = leaf->lower_bound(lo);
  while (out.size() < limit) {
    if (i >= leaf->entry_count()) {
      const uint64_t next = leaf->next_leaf();
      if (next == kInvalidNode) break;
      StatusOr<NodeRef> next_leaf = cache_.fetch(next);
      DAMKIT_RETURN_IF_ERROR(next_leaf.status());
      leaf = *std::move(next_leaf);
      i = 0;
      continue;
    }
    out.emplace_back(leaf->key(i), leaf->value(i));
    ++i;
  }
  return out;
}

void BTree::bulk_load(
    uint64_t count,
    const std::function<std::pair<std::string, std::string>(uint64_t)>& item) {
  DAMKIT_CHECK_MSG(root_ == kInvalidNode, "bulk_load requires an empty tree");
  if (count == 0) return;

  const auto target = static_cast<uint64_t>(
      kBulkFill * static_cast<double>(config_.node_bytes));

  struct Level {  // (first key, node id) per completed node
    std::vector<std::pair<std::string, uint64_t>> nodes;
  };
  Level leaves;

  // Build leaves; a leaf is written as soon as its successor's id is known
  // (the chain pointer must be in the image).
  NodeRef pending;
  uint64_t pending_id = kInvalidNode;
  std::string pending_first;
  NodeRef cur = BTreeNode::make_leaf();
  uint64_t cur_id = cache_.store().allocate();
  std::string cur_first;
  std::string prev_key;

  for (uint64_t i = 0; i < count; ++i) {
    auto [key, value] = item(i);
    DAMKIT_CHECK_MSG(i == 0 || kv::compare(prev_key, key) < 0,
                     "bulk_load keys must be strictly ascending");
    prev_key = key;
    const uint64_t add =
        node::KvRecord::encoded_size(key.size(), value.size());
    if (cur->entry_count() > 0 && cur->byte_size() + add > target) {
      if (pending) {
        pending->set_next_leaf(cur_id);
        DAMKIT_CHECK_OK(cache_.write_through(pending_id, *pending));
        leaves.nodes.emplace_back(std::move(pending_first), pending_id);
      }
      pending = std::move(cur);
      pending_id = cur_id;
      pending_first = std::move(cur_first);
      cur = BTreeNode::make_leaf();
      cur_id = cache_.store().allocate();
    }
    if (cur->entry_count() == 0) cur_first = key;
    cur->leaf_append(key, value);
  }
  if (pending) {
    pending->set_next_leaf(cur_id);
    DAMKIT_CHECK_OK(cache_.write_through(pending_id, *pending));
    leaves.nodes.emplace_back(std::move(pending_first), pending_id);
  }
  cur->set_next_leaf(kInvalidNode);
  DAMKIT_CHECK_OK(cache_.write_through(cur_id, *cur));
  leaves.nodes.emplace_back(std::move(cur_first), cur_id);

  size_ = count;
  height_ = 1;

  // Build internal levels until a single node remains.
  Level below = std::move(leaves);
  while (below.nodes.size() > 1) {
    Level above;
    size_t i = 0;
    while (i < below.nodes.size()) {
      NodeRef node = BTreeNode::make_internal();
      const uint64_t id = cache_.store().allocate();
      std::string first = below.nodes[i].first;
      node->internal_init(below.nodes[i].second);
      ++i;
      while (i < below.nodes.size()) {
        const uint64_t add =
            node::PivotRecord::encoded_size(below.nodes[i].first.size()) +
            BTreeNode::child_bytes();
        if (node->byte_size() + add > target && node->child_count() >= 2) {
          break;
        }
        // Never strand a single child for the next node.
        if (i + 1 == below.nodes.size() - 1 &&
            node->byte_size() + add > target) {
          break;
        }
        node->internal_insert(node->child_count() - 1,
                              std::move(below.nodes[i].first),
                              below.nodes[i].second);
        ++i;
      }
      DAMKIT_CHECK_OK(cache_.write_through(id, *node));
      above.nodes.emplace_back(std::move(first), id);
    }
    below = std::move(above);
    ++height_;
  }
  root_ = below.nodes.front().second;
}

void BTree::check_invariants() {
  if (root_ == kInvalidNode) {
    DAMKIT_CHECK(size_ == 0);
    return;
  }
  uint64_t entries = 0;
  uint64_t leftmost = kInvalidNode;
  check_subtree(root_, nullptr, nullptr, 0, height_ - 1, &entries, &leftmost);
  DAMKIT_CHECK_MSG(entries == size_,
                   "entry count " << entries << " != size " << size_);
}

void BTree::export_metrics(stats::MetricsRegistry& reg,
                           std::string_view prefix) const {
  const std::string p(prefix);
  reg.add(p + "puts", op_stats_.puts);
  reg.add(p + "gets", op_stats_.gets);
  reg.add(p + "erases", op_stats_.erases);
  reg.add(p + "scans", op_stats_.scans);
  reg.add(p + "splits", op_stats_.splits);
  reg.add(p + "merges", op_stats_.merges);
  reg.add(p + "borrows", op_stats_.borrows);
  reg.add(p + "logical_bytes_written", op_stats_.logical_bytes_written);
  reg.set(p + "height", static_cast<double>(height_));
  reg.set(p + "size", static_cast<double>(size_));
  if (op_stats_.logical_bytes_written > 0) {
    reg.set(p + "write_amplification",
            static_cast<double>(cache_.store().stats().bytes_written) /
                static_cast<double>(op_stats_.logical_bytes_written));
  }
  cache_.export_metrics(reg, p);
}

void BTree::check_subtree(uint64_t id, const std::string* lo,
                          const std::string* hi, size_t depth,
                          size_t leaf_depth, uint64_t* entries,
                          uint64_t* expected_leaf) {
  const NodeRef node = cache_.fetch(id).value();
  DAMKIT_CHECK_MSG(node->byte_size() == node->recomputed_byte_size(),
                   "byte-size drift at node " << id);
  DAMKIT_CHECK_MSG(node->byte_size() <= config_.node_bytes,
                   "overflowing node " << id << " left behind");
  if (node->is_leaf()) {
    DAMKIT_CHECK_MSG(depth == leaf_depth, "leaf at wrong depth");
    if (*expected_leaf != kInvalidNode) {
      DAMKIT_CHECK_MSG(*expected_leaf == id, "leaf chain broken at " << id);
    }
    *expected_leaf = node->next_leaf();
    for (size_t i = 0; i < node->entry_count(); ++i) {
      if (i > 0) {
        DAMKIT_CHECK(kv::compare(node->key(i - 1), node->key(i)) < 0);
      }
      if (lo != nullptr) DAMKIT_CHECK(kv::compare(*lo, node->key(i)) <= 0);
      if (hi != nullptr) DAMKIT_CHECK(kv::compare(node->key(i), *hi) < 0);
    }
    *entries += node->entry_count();
    return;
  }
  DAMKIT_CHECK(node->child_count() >= 2 || id != root_ || height_ == 1);
  DAMKIT_CHECK(node->child_count() == node->pivot_count() + 1);
  for (size_t i = 0; i + 1 < node->pivot_count(); ++i) {
    DAMKIT_CHECK(kv::compare(node->pivot(i), node->pivot(i + 1)) < 0);
  }
  for (size_t i = 0; i < node->child_count(); ++i) {
    // Pivot views don't outlive fetches inside the recursion; materialize
    // the bounds for this child.
    std::string lo_buf, hi_buf;
    const std::string* child_lo = lo;
    if (i > 0) {
      lo_buf = std::string(node->pivot(i - 1));
      child_lo = &lo_buf;
    }
    const std::string* child_hi = hi;
    if (i != node->pivot_count()) {
      hi_buf = std::string(node->pivot(i));
      child_hi = &hi_buf;
    }
    check_subtree(node->child(i), child_lo, child_hi, depth + 1, leaf_depth,
                  entries, expected_leaf);
  }
}

}  // namespace damkit::btree
