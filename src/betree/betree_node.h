// In-memory Bε-tree node and its on-"disk" image.
//
// Leaves hold sorted key/value entries exactly like B-tree leaves.
// Internal nodes hold pivots, child ids, and one message buffer *per
// child*: all messages destined for child i sit contiguously in arrival
// order. Keeping buffers bucketed by child is how TokuDB organizes nodes
// and is also the prerequisite for the Theorem-9 optimization (a query
// needs only the one segment for the child it descends into).
//
// Storage is zero-copy: leaf entries live in a node::KvPage and pivots in
// a node::PivotPage (node/sorted_page.h), in wire format, and each child's
// buffer is a MsgSegment of node::TaggedRecord messages (message.h), so
// serialize/deserialize move bytes without per-entry allocations (a leaf
// adopts the read buffer outright). Messages enter and leave as records:
// buffer_add appends a MessageView's record, buffer(i) yields MessageView
// borrows, take_buffer moves a whole segment out, and leaf_apply takes a
// view. All byte-size accounting follows the record formats in
// node/record.h.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "betree/message.h"
#include "kv/slice.h"
#include "node/sorted_page.h"
#include "util/bytes.h"
#include "util/status.h"

namespace damkit::betree {

inline constexpr uint64_t kInvalidNode = ~0ULL;

class BeTreeNode {
 public:
  static std::shared_ptr<BeTreeNode> make_leaf();
  static std::shared_ptr<BeTreeNode> make_internal();

  bool is_leaf() const { return is_leaf_; }
  uint64_t byte_size() const {
    // A leaf has no children, buffers or pivots; an internal node no entries.
    return header_bytes() + child_bytes() * children_.size() +
           total_buffer_bytes_ + entries_.live_bytes() + pivots_.live_bytes();
  }

  /// IO accounting for partial (sub-node) reads — used only by OptBeTree
  /// (Theorem 9). When `partial` is set, only the listed segments (child
  /// buffer segments for internal nodes, basement chunks for leaves) have
  /// been charged to the device; touching any other segment, or mutating
  /// the node, must charge the missing bytes first. Not serialized.
  struct Residency {
    bool partial = false;
    uint64_t charged_bytes = 0;
    std::vector<uint32_t> segments;  // small, unsorted

    bool has_segment(uint32_t idx) const {
      return std::find(segments.begin(), segments.end(), idx) != segments.end();
    }
  };
  Residency residency;

  // --- Leaf interface (views are invalidated by any mutation) ---
  size_t entry_count() const { return entries_.count(); }
  kv::Slice key(size_t i) const { return entries_.key(i); }
  kv::Slice value(size_t i) const { return entries_.value(i); }
  size_t lower_bound(std::string_view key) const {
    return entries_.lower_bound(key);
  }
  bool key_equals(size_t i, std::string_view key) const {
    return entries_.key_equals(i, key);
  }
  /// Apply a message to the leaf's entries (put/tombstone/upsert).
  void leaf_apply(const MessageView& msg);
  /// Append an entry known to sort after all existing ones (bulk load).
  void leaf_append(std::string_view key, std::string_view value) {
    DAMKIT_CHECK(is_leaf_);
    entries_.append(key, value);
  }

  // --- Internal interface ---
  size_t child_count() const { return children_.size(); }
  uint64_t child(size_t i) const { return children_[i]; }
  std::span<const uint64_t> children() const { return children_; }
  size_t pivot_count() const { return pivots_.count(); }
  kv::Slice pivot(size_t i) const { return pivots_.key(i); }
  size_t child_index(std::string_view key) const {
    DAMKIT_CHECK(!is_leaf_);
    return pivots_.upper_bound(key);
  }

  void internal_init(uint64_t first_child);
  /// Insert (pivot, right_child) after child `child_idx` with an empty
  /// buffer; used when a child splits (its buffer here is empty then).
  void internal_insert(size_t child_idx, std::string_view pivot,
                       uint64_t right_child);
  /// Remove pivot i and child i+1, folding child i+1's buffer into child
  /// i's (key ranges are disjoint so per-key order is preserved).
  void internal_remove_child(size_t pivot_idx);

  // --- Buffers ---
  uint64_t buffer_bytes(size_t child_idx) const {
    return segments_[child_idx].bytes.size();
  }
  uint64_t total_buffer_bytes() const { return total_buffer_bytes_; }
  size_t buffer_count(size_t child_idx) const {
    return segments_[child_idx].count;
  }
  /// Borrowed view over child i's packed buffer segment (arrival order).
  /// Invalidated by any mutation of this node.
  MsgRange buffer(size_t child_idx) const {
    return segments_[child_idx].range();
  }
  /// Append a message's record to child i's buffer (arrival order).
  void buffer_add(size_t child_idx, const MessageView& msg);
  /// Move child i's entire buffer out (leaves it empty).
  MsgSegment take_buffer(size_t child_idx);
  /// Index of the child with the largest pending buffer (bytes).
  size_t fullest_child() const;
  /// Append copies of the records for `key` in child i's buffer to `out`,
  /// in arrival order.
  void collect_for_key(size_t child_idx, std::string_view key,
                       MsgSegment* out) const;

  // --- Splitting ---
  struct SplitResult {
    std::string separator;
    std::shared_ptr<BeTreeNode> right;
  };
  /// Split roughly in half by bytes. Leaves split like B-tree leaves;
  /// internal nodes split at a child boundary, partitioning buffers.
  SplitResult split();

  /// Merge the right sibling leaf into this leaf (both leaves).
  void leaf_merge_from_right(BeTreeNode& right);

  // --- Serialization ---
  /// Replace `out` (a std::vector<uint8_t> or a ByteBuffer) with the image.
  template <typename Bytes>
  void serialize(Bytes& out) const;
  /// Parse `image` (a node image, possibly followed by padding). A leaf
  /// adopts it as its entries' heap; an internal node copies its message
  /// segments and pivots out of it.
  static std::shared_ptr<BeTreeNode> deserialize(ByteBuffer&& image);
  /// The same parse of borrowed bytes: copies them into a buffer first.
  static std::shared_ptr<BeTreeNode> deserialize(
      std::span<const uint8_t> image);
  /// byte_size() from the records' own length fields (a cross-check).
  uint64_t recomputed_byte_size() const;

  /// magic u32 + flags u8 + count u32.
  static uint64_t header_bytes() { return 4 + 1 + 4; }
  /// Per-child fixed cost: child id (8) + buffer count (4).
  static uint64_t child_bytes() { return 12; }

 private:
  BeTreeNode() = default;

  bool is_leaf_ = true;
  node::KvPage entries_;    // leaf only
  node::PivotPage pivots_;  // internal only: child_count - 1
  std::vector<uint64_t> children_;
  std::vector<MsgSegment> segments_;  // parallel to children_
  uint64_t total_buffer_bytes_ = 0;
};

}  // namespace damkit::betree
