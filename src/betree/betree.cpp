#include "betree/betree.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <utility>

#include "kv/slice.h"
#include "node/record.h"

namespace damkit::betree {

namespace {

// Max children batch-prefetched ahead of a range scan. The window doubles
// from 2 as a scan proceeds through an internal node, so a short scan
// wastes at most one small batch while a long one reaches full device
// parallelism.
constexpr size_t kScanPrefetchWindow = 8;

// Bulk-load fill and the leaf-merge threshold during flushes, as fractions
// of node_bytes.
constexpr double kBulkFill = 0.85;
constexpr double kMinFill = 0.2;

}  // namespace

BeTree::BeTree(sim::Device& dev, sim::IoContext& io, BeTreeConfig config)
    : config_(config),
      cache_(dev, io, config.node_bytes, config.cache_bytes, config.base_offset,
             config.codec) {
  DAMKIT_CHECK(config_.node_bytes >= 1024);
  DAMKIT_CHECK(config_.cache_bytes >= config_.node_bytes);
  if (config_.target_fanout > 0) {
    fanout_ = config_.target_fanout;
  } else {
    // ε = 1/2 default: F = sqrt(B / pivot_estimate) — the B^(1/2)-tree.
    fanout_ = static_cast<size_t>(std::sqrt(
        static_cast<double>(config_.node_bytes) /
        static_cast<double>(config_.pivot_estimate_bytes)));
  }
  fanout_ = std::max<size_t>(fanout_, 4);
}

const kv::Capabilities& BeTree::capabilities() const {
  static constexpr kv::Capabilities kCaps{.native_upsert = true};
  return kCaps;
}

Status BeTree::try_put(std::string_view key, std::string_view value) {
  DAMKIT_RETURN_IF_ERROR(node::check_key_size(key));
  const MessageView msg{MessageKind::kPut, key, value};
  // A leaf must hold two entries or splitting cannot make progress.
  if (msg.bytes() > config_.node_bytes / 2) {
    return Status::invalid_argument("entry too large for half a node");
  }
  ++op_stats_.puts;
  op_stats_.logical_bytes_written += key.size() + value.size();
  return root_add(msg);
}

Status BeTree::try_erase(std::string_view key) {
  DAMKIT_RETURN_IF_ERROR(node::check_key_size(key));
  ++op_stats_.erases;
  op_stats_.logical_bytes_written += key.size();
  return root_add({MessageKind::kTombstone, key, {}});
}

Status BeTree::try_upsert(std::string_view key, int64_t delta) {
  DAMKIT_RETURN_IF_ERROR(node::check_key_size(key));
  ++op_stats_.upserts;
  op_stats_.logical_bytes_written += key.size() + 8;
  const std::string payload = encode_delta(delta);  // 8 bytes, held inline
  return root_add({MessageKind::kUpsert, key, payload});
}

Status BeTree::root_add(const MessageView& msg) {
  if (root_ == kInvalidNode) {
    StatusOr<uint64_t> id = cache_.store().try_allocate();
    DAMKIT_RETURN_IF_ERROR(id.status());
    root_ = *id;
    cache_.install(root_, BeTreeNode::make_leaf());
    height_ = 1;
  }
  StatusOr<NodeRef> root_or = try_fetch(root_);
  DAMKIT_RETURN_IF_ERROR(root_or.status());
  NodeRef root = *std::move(root_or);
  if (root->is_leaf()) {
    root->leaf_apply(msg);
  } else {
    root->buffer_add(root->child_index(msg.key), msg);
  }
  cache_.mark_dirty(root_);
  if (overflowing(*root) || flush_pressure(*root)) return fix_root();
  return Status();
}

bool BeTree::flush_pressure(const BeTreeNode& /*node*/) const { return false; }

Status BeTree::fix_root() {
  StatusOr<NodeRef> root_or = try_fetch(root_);
  DAMKIT_RETURN_IF_ERROR(root_or.status());
  NodeRef root = *std::move(root_or);
  // Reserve the potential new root up front: once fix_node has produced
  // splits they MUST be linked under a new root, and an allocation failure
  // at that point would orphan their subtrees.
  StatusOr<uint64_t> reserved = cache_.store().try_allocate();
  DAMKIT_RETURN_IF_ERROR(reserved.status());
  std::vector<SplitInfo> splits;
  const Status fixed = fix_node(root_, root, splits, /*depth=*/0);
  if (splits.empty()) {
    cache_.store().free(*reserved);
    return fixed;
  }
  const uint64_t new_root_id = *reserved;
  NodeRef new_root = BeTreeNode::make_internal();
  new_root->internal_init(root_);
  for (auto& s : splits) {
    new_root->internal_insert(new_root->child_count() - 1,
                              std::move(s.separator), s.right_id);
  }
  cache_.install(new_root_id, new_root);
  root_ = new_root_id;
  ++height_;
  DAMKIT_RETURN_IF_ERROR(fixed);
  // A burst of splits can overfill even the fresh root.
  if (overflowing(*new_root) || new_root->child_count() > fanout_) {
    return fix_root();
  }
  return Status();
}

size_t BeTree::pick_flush_child(const BeTreeNode& n) {
  if (config_.flush_policy == FlushPolicy::kFullestChild) {
    return n.fullest_child();
  }
  // Round robin over non-empty buffers.
  const size_t count = n.child_count();
  for (size_t step = 0; step < count; ++step) {
    const size_t i = (round_robin_cursor_ + step) % count;
    if (n.buffer_bytes(i) > 0) {
      round_robin_cursor_ = (i + 1) % count;
      return i;
    }
  }
  return n.fullest_child();
}

Status BeTree::fix_node(uint64_t id, NodeRef node, std::vector<SplitInfo>& out,
                        size_t depth) {
  if (!node->is_leaf()) {
    while ((overflowing(*node) || flush_pressure(*node)) &&
           node->total_buffer_bytes() > 0) {
      DAMKIT_RETURN_IF_ERROR(flush_one(id, node, depth));
    }
  }
  const bool need_split = overflowing(*node) ||
                          (!node->is_leaf() && node->child_count() > fanout_);
  if (!need_split) return Status();
  if (node->is_leaf() && node->entry_count() < 2) return Status();
  if (!node->is_leaf() && node->child_count() < 2) return Status();

  // Allocate BEFORE split() mutates the node: an exhausted allocator then
  // leaves the node whole (oversized but readable; retried later).
  StatusOr<uint64_t> right_alloc = cache_.store().try_allocate();
  DAMKIT_RETURN_IF_ERROR(right_alloc.status());
  const uint64_t right_id = *right_alloc;
  BeTreeNode::SplitResult sr = node->split();
  if (node->is_leaf()) {
    ++op_stats_.leaf_splits;
  } else {
    ++op_stats_.internal_splits;
  }
  NodeRef right = sr.right;
  cache_.install(right_id, right);
  cache_.mark_dirty(id);
  // Either half may still violate limits; recurse on both, emitting the
  // accumulated separators in strictly ascending key order: left's splits
  // (keys < separator), then the separator, then right's (keys > it).
  // The separator for the half just produced is pushed even when the left
  // recursion fails — dropping it would orphan the right subtree.
  const Status left_fixed = fix_node(id, node, out, depth);
  out.push_back({std::move(sr.separator), right_id});
  DAMKIT_RETURN_IF_ERROR(left_fixed);
  return fix_node(right_id, right, out, depth);
}

Status BeTree::flush_one(uint64_t id, NodeRef node, size_t depth) {
  const size_t idx = pick_flush_child(*node);
  if (node->buffer_bytes(idx) == 0) return Status();
  // Fetch the child BEFORE draining the buffer: a read failure then leaves
  // every pending message in place.
  const uint64_t child_id = node->child(idx);
  StatusOr<NodeRef> child_or = try_fetch(child_id);
  DAMKIT_RETURN_IF_ERROR(child_or.status());
  NodeRef child = *std::move(child_or);
  ++op_stats_.flushes;
  op_stats_.messages_moved += node->buffer_count(idx);
  if (depth >= flushes_by_depth_.size()) flushes_by_depth_.resize(depth + 1);
  ++flushes_by_depth_[depth];
  cache_.mark_dirty(id);

  if (child->is_leaf()) return apply_to_leaf_child(id, node, idx, depth);

  // Route each record into the child's buffer for its grandchild.
  const MsgSegment msgs = node->take_buffer(idx);
  for (const MessageView m : msgs.range()) {
    child->buffer_add(child->child_index(m.key), m);
  }
  cache_.mark_dirty(child_id);
  if (overflowing(*child)) {
    std::vector<SplitInfo> splits;
    const Status fixed = fix_node(child_id, child, splits, depth + 1);
    size_t at = idx;
    for (auto& s : splits) {
      node->internal_insert(at, std::move(s.separator), s.right_id);
      ++at;
    }
    DAMKIT_RETURN_IF_ERROR(fixed);
  }
  return Status();
}

Status BeTree::apply_to_leaf_child(uint64_t parent_id, NodeRef parent,
                                   size_t child_idx, size_t depth) {
  const uint64_t leaf_id = parent->child(child_idx);
  // Take the messages only once the leaf is here: a failed fetch leaves
  // them buffered, so the flush can be retried without loss.
  StatusOr<NodeRef> leaf_or = try_fetch(leaf_id);
  DAMKIT_RETURN_IF_ERROR(leaf_or.status());
  NodeRef leaf = *std::move(leaf_or);
  const MsgSegment msgs = parent->take_buffer(child_idx);
  for (const MessageView m : msgs.range()) leaf->leaf_apply(m);
  cache_.mark_dirty(leaf_id);

  if (overflowing(*leaf)) {
    std::vector<SplitInfo> splits;
    const Status fixed = fix_node(leaf_id, leaf, splits, depth + 1);
    size_t at = child_idx;
    for (auto& s : splits) {
      parent->internal_insert(at, std::move(s.separator), s.right_id);
      ++at;
    }
    cache_.mark_dirty(parent_id);
    return fixed;
  }

  // Underflow: merge small leaves so tombstone-heavy workloads shrink the
  // tree instead of accumulating empty leaves.
  const auto min_bytes = static_cast<uint64_t>(
      kMinFill * static_cast<double>(config_.node_bytes));
  if (leaf->byte_size() >= min_bytes || parent->child_count() < 2) {
    return Status();
  }

  const size_t li = (child_idx + 1 < parent->child_count()) ? child_idx
                                                            : child_idx - 1;
  const uint64_t left_id = parent->child(li);
  const uint64_t right_id = parent->child(li + 1);
  StatusOr<NodeRef> left_or = try_fetch(left_id);
  DAMKIT_RETURN_IF_ERROR(left_or.status());
  StatusOr<NodeRef> right_or = try_fetch(right_id);
  DAMKIT_RETURN_IF_ERROR(right_or.status());
  NodeRef left = *std::move(left_or);
  NodeRef right = *std::move(right_or);
  if (!left->is_leaf() || !right->is_leaf()) return Status();
  const uint64_t merged =
      left->byte_size() + right->byte_size() - BeTreeNode::header_bytes();
  if (merged > config_.node_bytes * 9 / 10) return Status();

  left->leaf_merge_from_right(*right);
  parent->internal_remove_child(li);
  cache_.mark_dirty(left_id);
  cache_.mark_dirty(parent_id);
  cache_.drop(right_id);
  ++op_stats_.leaf_merges;
  return collapse_root();
}

Status BeTree::collapse_root() {
  while (height_ > 1) {
    StatusOr<NodeRef> root_or = try_fetch(root_);
    DAMKIT_RETURN_IF_ERROR(root_or.status());
    NodeRef root = *std::move(root_or);
    if (root->is_leaf() || root->child_count() > 1) return Status();
    if (root->total_buffer_bytes() > 0) {
      // Push the stragglers down before collapsing.
      DAMKIT_RETURN_IF_ERROR(flush_one(root_, root, /*depth=*/0));
      continue;
    }
    const uint64_t only = root->child(0);
    cache_.drop(root_);
    root_ = only;
    --height_;
  }
  return Status();
}

StatusOr<std::optional<std::string>> BeTree::try_get(std::string_view key) {
  ++op_stats_.gets;
  if (root_ == kInvalidNode) return std::optional<std::string>();
  // The key's records are copied out level by level, so the descent pins
  // one node at a time.
  std::vector<MsgSegment> path;
  StatusOr<NodeRef> node = try_fetch(root_);
  DAMKIT_RETURN_IF_ERROR(node.status());
  while (!(*node)->is_leaf()) {
    const size_t idx = (*node)->child_index(key);
    (*node)->collect_for_key(idx, key, &path.emplace_back());
    node = try_fetch((*node)->child(idx));
    DAMKIT_RETURN_IF_ERROR(node.status());
  }
  std::optional<std::string> state;
  const size_t i = (*node)->lower_bound(key);
  if ((*node)->key_equals(i, key)) state = (*node)->value(i);
  return apply_path(std::move(state), path);
}

std::optional<std::string> BeTree::apply_path(
    std::optional<std::string> state, std::span<const MsgSegment> path) {
  for (auto level = path.rbegin(); level != path.rend(); ++level) {
    for (const MessageView m : level->range()) {
      state = apply_message(std::move(state), m);
    }
  }
  return state;
}

StatusOr<bool> BeTree::scan_rec(
    uint64_t id, std::string_view lo, size_t limit,
    std::vector<MessageView>& pending,
    std::vector<std::pair<std::string, std::string>>* out) {
  StatusOr<NodeRef> node_or = try_fetch(id);
  DAMKIT_RETURN_IF_ERROR(node_or.status());
  NodeRef node = *std::move(node_or);
  if (node->is_leaf()) {
    // A stable sort by key keeps each key's messages oldest first: deeper
    // levels before shallower ones, arrival order within a level.
    std::stable_sort(pending.begin(), pending.end(),
                     [](const MessageView& a, const MessageView& b) {
                       return kv::compare(a.key, b.key) < 0;
                     });
    size_t e = node->lower_bound(lo);
    size_t m = 0;
    while (out->size() < limit) {
      const bool have_entry = e < node->entry_count();
      if (!have_entry && m == pending.size()) return false;
      if (m == pending.size() ||
          (have_entry && kv::compare(node->key(e), pending[m].key) < 0)) {
        out->emplace_back(node->key(e), node->value(e));  // no messages
        ++e;
        continue;
      }
      // A key with messages starts from its leaf value, if it has one.
      const kv::Slice key = pending[m].key;
      std::optional<std::string> state;
      if (node->key_equals(e, key)) state = std::string(node->value(e++));
      for (; m < pending.size() && pending[m].key == key; ++m) {
        state = apply_message(std::move(state), pending[m]);
      }
      if (state.has_value()) out->emplace_back(key, std::move(*state));
    }
    return true;
  }

  const size_t start = node->child_index(lo);
  // Read ahead of the scan in doubling batches (up to
  // kScanPrefetchWindow): the children are independent extents, so an SSD
  // serves a window P at a time (PDAM) and an HDD reorders it within the
  // NCQ window. Starting at 2 bounds the waste when the scan stops early.
  size_t window = 2;
  size_t prefetched_until = start;
  std::vector<MessageView> child_pending;
  for (size_t i = start; i < node->child_count(); ++i) {
    if (i >= prefetched_until) {
      const size_t end = std::min(i + window, node->child_count());
      DAMKIT_RETURN_IF_ERROR(
          cache_.prefetch(node->children().subspan(i, end - i)));
      prefetched_until = end;
      window = std::min(window * 2, kScanPrefetchWindow);
    }
    // Deepest level first: this node's buffer is older than every
    // ancestor's, whose views are kept only if routed to child i.
    child_pending.clear();
    for (const MessageView m : node->buffer(i)) {
      if (kv::compare(m.key, lo) >= 0) child_pending.push_back(m);
    }
    for (const MessageView& m : pending) {
      if (i > 0 && kv::compare(m.key, node->pivot(i - 1)) < 0) continue;
      if (i < node->pivot_count() && kv::compare(m.key, node->pivot(i)) >= 0) {
        continue;
      }
      child_pending.push_back(m);
    }
    StatusOr<bool> done =
        scan_rec(node->child(i), lo, limit, child_pending, out);
    DAMKIT_RETURN_IF_ERROR(done.status());
    if (*done) return true;
  }
  return false;
}

StatusOr<std::vector<std::pair<std::string, std::string>>>
BeTree::try_range_scan(std::string_view lo, size_t limit) {
  ++op_stats_.scans;
  std::vector<std::pair<std::string, std::string>> out;
  if (root_ == kInvalidNode || limit == 0) return out;
  std::vector<MessageView> pending;
  StatusOr<bool> done = scan_rec(root_, lo, limit, pending, &out);
  DAMKIT_RETURN_IF_ERROR(done.status());
  return out;
}

void BeTree::bulk_load(
    uint64_t count,
    const std::function<std::pair<std::string, std::string>(uint64_t)>& item) {
  DAMKIT_CHECK_MSG(root_ == kInvalidNode, "bulk_load requires an empty tree");
  if (count == 0) return;

  const auto target = static_cast<uint64_t>(
      kBulkFill * static_cast<double>(config_.node_bytes));

  std::vector<std::pair<std::string, uint64_t>> level;  // (first key, id)
  NodeRef cur = BeTreeNode::make_leaf();
  std::string cur_first;
  std::string prev_key;
  for (uint64_t i = 0; i < count; ++i) {
    auto [key, value] = item(i);
    DAMKIT_CHECK_MSG(i == 0 || kv::compare(prev_key, key) < 0,
                     "bulk_load keys must be strictly ascending");
    prev_key = key;
    const uint64_t add = node::KvRecord::encoded_size(key.size(), value.size());
    if (cur->entry_count() > 0 && cur->byte_size() + add > target) {
      const uint64_t id = cache_.store().allocate();
      DAMKIT_CHECK_OK(cache_.write_through(id, *cur));
      level.emplace_back(std::move(cur_first), id);
      cur = BeTreeNode::make_leaf();
    }
    if (cur->entry_count() == 0) cur_first = key;
    cur->leaf_append(key, value);
  }
  {
    const uint64_t id = cache_.store().allocate();
    DAMKIT_CHECK_OK(cache_.write_through(id, *cur));
    level.emplace_back(std::move(cur_first), id);
  }
  height_ = 1;

  while (level.size() > 1) {
    std::vector<std::pair<std::string, uint64_t>> above;
    size_t i = 0;
    while (i < level.size()) {
      NodeRef node = BeTreeNode::make_internal();
      std::string first = level[i].first;
      node->internal_init(level[i].second);
      ++i;
      while (i < level.size() && node->child_count() < fanout_) {
        const uint64_t add =
            node::PivotRecord::encoded_size(level[i].first.size()) +
            BeTreeNode::child_bytes();
        if (node->byte_size() + add > target && node->child_count() >= 2) {
          break;
        }
        node->internal_insert(node->child_count() - 1,
                              std::move(level[i].first), level[i].second);
        ++i;
      }
      const uint64_t id = cache_.store().allocate();
      DAMKIT_CHECK_OK(cache_.write_through(id, *node));
      above.emplace_back(std::move(first), id);
    }
    level = std::move(above);
    ++height_;
  }
  root_ = level.front().second;
}

void BeTree::export_metrics(stats::MetricsRegistry& reg,
                            std::string_view prefix) const {
  const std::string p(prefix);
  reg.add(p + "puts", op_stats_.puts);
  reg.add(p + "gets", op_stats_.gets);
  reg.add(p + "erases", op_stats_.erases);
  reg.add(p + "upserts", op_stats_.upserts);
  reg.add(p + "scans", op_stats_.scans);
  reg.add(p + "flushes", op_stats_.flushes);
  reg.add(p + "leaf_splits", op_stats_.leaf_splits);
  reg.add(p + "internal_splits", op_stats_.internal_splits);
  reg.add(p + "leaf_merges", op_stats_.leaf_merges);
  reg.add(p + "messages_moved", op_stats_.messages_moved);
  reg.add(p + "logical_bytes_written", op_stats_.logical_bytes_written);
  for (size_t d = 0; d < flushes_by_depth_.size(); ++d) {
    reg.add(p + "flushes.depth" + std::to_string(d), flushes_by_depth_[d]);
  }
  reg.set(p + "height", static_cast<double>(height_));
  reg.set(p + "target_fanout", static_cast<double>(fanout_));
  if (op_stats_.flushes > 0) {
    reg.set(p + "messages_per_flush",
            static_cast<double>(op_stats_.messages_moved) /
                static_cast<double>(op_stats_.flushes));
  }
  if (op_stats_.logical_bytes_written > 0) {
    reg.set(p + "write_amplification",
            static_cast<double>(cache_.store().stats().bytes_written) /
                static_cast<double>(op_stats_.logical_bytes_written));
  }
  cache_.export_metrics(reg, p);
}

void BeTree::check_invariants() {
  if (root_ == kInvalidNode) return;
  uint64_t live = 0;
  check_subtree(root_, nullptr, nullptr, 0, height_ - 1, &live);
}

void BeTree::check_subtree(uint64_t id, const std::string* lo,
                           const std::string* hi, size_t depth,
                           size_t leaf_depth, uint64_t* live) {
  const NodeRef node = try_fetch(id).value();
  DAMKIT_CHECK_MSG(node->byte_size() == node->recomputed_byte_size(),
                   "byte-size drift at node " << id);
  DAMKIT_CHECK_MSG(node->byte_size() <= config_.node_bytes,
                   "overflowing node " << id << " left behind");
  if (node->is_leaf()) {
    DAMKIT_CHECK_MSG(depth == leaf_depth, "leaf at wrong depth");
    for (size_t i = 0; i < node->entry_count(); ++i) {
      if (i > 0) DAMKIT_CHECK(kv::compare(node->key(i - 1), node->key(i)) < 0);
      if (lo != nullptr) DAMKIT_CHECK(kv::compare(*lo, node->key(i)) <= 0);
      if (hi != nullptr) DAMKIT_CHECK(kv::compare(node->key(i), *hi) < 0);
    }
    *live += node->entry_count();
    return;
  }
  DAMKIT_CHECK_MSG(node->child_count() <= fanout_,
                   "fanout " << node->child_count() << " exceeds cap "
                             << fanout_);
  DAMKIT_CHECK(node->child_count() == node->pivot_count() + 1);
  for (size_t i = 0; i + 1 < node->pivot_count(); ++i) {
    DAMKIT_CHECK(kv::compare(node->pivot(i), node->pivot(i + 1)) < 0);
  }
  for (size_t i = 0; i < node->child_count(); ++i) {
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
    // Buffer routing: every pending message belongs to this child's range.
    for (const MessageView m : node->buffer(i)) {
      DAMKIT_CHECK_MSG(
          child_lo == nullptr || kv::compare(*child_lo, m.key) <= 0,
          "misrouted message below child " << i << "/" << node->child_count()
              << " of node " << id << " key=" << kv::decode_key(m.key));
      DAMKIT_CHECK_MSG(
          child_hi == nullptr || kv::compare(m.key, *child_hi) < 0,
          "misrouted message above child " << i << "/" << node->child_count()
              << " of node " << id << " key=" << kv::decode_key(m.key)
              << " hi=" << kv::decode_key(*child_hi));
    }
    check_subtree(node->child(i), child_lo, child_hi, depth + 1, leaf_depth,
                  live);
  }
}

}  // namespace damkit::betree
