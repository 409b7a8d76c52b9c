// In-memory Bε-tree node and its on-"disk" image.
//
// Leaves hold sorted key/value entries exactly like B-tree leaves.
// Internal nodes hold pivots, child ids, and one message buffer *per
// child*: all messages destined for child i sit contiguously in arrival
// order. Keeping buffers bucketed by child is how TokuDB organizes nodes
// and is also the prerequisite for the Theorem-9 optimization (a query
// needs only the one segment for the child it descends into).
//
// Storage is zero-copy: leaf entries and pivots live in node::SlottedPage
// containers in wire format, and each child's buffer is a packed
// MsgSegment of wire-format message records (arrival order, append-only),
// so serialize/deserialize move bytes without per-entry allocations and
// buffer(i) yields MessageView borrows. The wire image and all byte-size
// accounting are bit-identical to the pre-slotted layout.
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
#include "node/slotted_page.h"

namespace damkit::betree {

inline constexpr uint64_t kInvalidNode = ~0ULL;

class BeTreeNode {
 public:
  static std::shared_ptr<BeTreeNode> make_leaf();
  static std::shared_ptr<BeTreeNode> make_internal();

  bool is_leaf() const { return is_leaf_; }
  uint64_t byte_size() const {
    if (is_leaf_) return header_bytes() + page_.live_bytes();
    return header_bytes() + child_bytes() * children_.size() +
           total_buffer_bytes_ + pivots_.live_bytes();
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
      return std::find(segments.begin(), segments.end(), idx) !=
             segments.end();
    }
  };
  Residency residency;

  // --- Leaf interface (views are invalidated by any mutation) ---
  size_t entry_count() const { return page_.count(); }
  kv::Slice key(size_t i) const {
    const kv::Slice rec = page_.record(i);
    return rec.substr(6, rec_klen(rec));
  }
  kv::Slice value(size_t i) const {
    const kv::Slice rec = page_.record(i);
    return rec.substr(6 + rec_klen(rec));
  }
  size_t lower_bound(std::string_view key) const;
  bool key_equals(size_t i, std::string_view key) const;
  /// Apply a message to the leaf's entries (put/tombstone/upsert).
  void leaf_apply(const Message& msg);
  void leaf_append(std::string_view key, std::string_view value);  // bulk load

  // --- Internal interface ---
  size_t child_count() const { return children_.size(); }
  uint64_t child(size_t i) const { return children_[i]; }
  std::span<const uint64_t> children() const { return children_; }
  size_t pivot_count() const { return pivots_.count(); }
  kv::Slice pivot(size_t i) const { return pivots_.record(i).substr(2); }
  size_t child_index(std::string_view key) const;

  void internal_init(uint64_t first_child);
  /// Insert (pivot, right_child) after child `child_idx` with an empty
  /// buffer; used when a child splits (its buffer here is empty then).
  void internal_insert(size_t child_idx, std::string_view pivot,
                       uint64_t right_child);
  /// Remove pivot i and child i+1, folding child i+1's buffer into child
  /// i's (key ranges are disjoint so per-key order is preserved).
  void internal_remove_child(size_t pivot_idx);
  void internal_set_child(size_t i, uint64_t id) { children_[i] = id; }

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
    const MsgSegment& s = segments_[child_idx];
    return MsgRange(s.bytes.data(), s.bytes.size(), s.count);
  }
  /// Append a message to child i's buffer (arrival order).
  void buffer_add(size_t child_idx, const Message& msg);
  /// Move child i's entire buffer out as owned messages (clears it).
  std::vector<Message> buffer_take(size_t child_idx);
  /// Index of the child with the largest pending buffer (bytes).
  size_t fullest_child() const;
  /// Collect messages for `key` in child i's buffer, in arrival order.
  void collect_for_key(size_t child_idx, std::string_view key,
                       std::vector<Message>* out) const;

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
  void serialize(std::vector<uint8_t>& out) const;
  static std::shared_ptr<BeTreeNode> deserialize(
      std::span<const uint8_t> image);
  uint64_t recomputed_byte_size() const;

  static uint64_t header_bytes() { return 4 + 1 + 4; }
  static uint64_t leaf_entry_bytes(size_t klen, size_t vlen) {
    return 2 + 4 + klen + vlen;
  }
  static uint64_t pivot_bytes(size_t klen) { return 2 + klen; }
  /// Per-child fixed cost: child id (8) + buffer count (4).
  static uint64_t child_bytes() { return 12; }

 private:
  BeTreeNode() = default;

  static uint16_t rec_klen(std::string_view rec) {
    return load_u16(reinterpret_cast<const uint8_t*>(rec.data()));
  }

  /// One child's pending messages, packed in wire format (append-only;
  /// the serialized image embeds the bytes verbatim).
  struct MsgSegment {
    std::vector<uint8_t> bytes;
    uint32_t count = 0;
  };

  bool is_leaf_ = true;
  node::SlottedPage page_;    // leaf [u16 klen][u32 vlen][key][value] records
  node::SlottedPage pivots_;  // internal [u16 klen][key] records
  std::vector<uint64_t> children_;
  std::vector<MsgSegment> segments_;  // parallel to children_
  uint64_t total_buffer_bytes_ = 0;
};

}  // namespace damkit::betree
