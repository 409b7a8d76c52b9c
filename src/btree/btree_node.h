// In-memory B-tree node and its on-"disk" image.
//
// A node is either a leaf (sorted key/value entries, chained to the next
// leaf B+-tree style) or an internal node (n-1 pivots, n child ids).
//
// Leaf entries live in a node::KvPage and pivots in a node::PivotPage
// (node/sorted_page.h), in wire format, so deserialize adopts the read
// buffer as the page's heap and walks the record headers in place (no copy,
// no per-entry string allocations), serialize of an untouched node is one
// memcpy, and key()/value()/pivot() are zero-copy kv::Slice views into the
// page. byte_size() is derived from the pages' live bytes, so sizes (and
// therefore every split/merge decision and sim-time gauge) follow the
// record formats in node/record.h.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "kv/slice.h"
#include "node/sorted_page.h"
#include "util/bytes.h"
#include "util/status.h"

namespace damkit::btree {

inline constexpr uint64_t kInvalidNode = ~0ULL;

class BTreeNode {
 public:
  static std::shared_ptr<BTreeNode> make_leaf();
  static std::shared_ptr<BTreeNode> make_internal();

  bool is_leaf() const { return is_leaf_; }
  uint64_t byte_size() const {
    // One of the two pages is always empty.
    return header_bytes() + child_bytes() * children_.size() +
           entries_.live_bytes() + pivots_.live_bytes();
  }

  // --- Leaf accessors (views are invalidated by any mutation) ---
  size_t entry_count() const { return entries_.count(); }
  kv::Slice key(size_t i) const { return entries_.key(i); }
  kv::Slice value(size_t i) const { return entries_.value(i); }
  uint64_t next_leaf() const { return next_leaf_; }
  void set_next_leaf(uint64_t id) { next_leaf_ = id; }

  /// Index of the first entry with key >= `key` (leaf binary search).
  size_t lower_bound(std::string_view key) const {
    return entries_.lower_bound(key);
  }
  /// True if entry `i` exists and equals `key`.
  bool key_equals(size_t i, std::string_view key) const {
    return entries_.key_equals(i, key);
  }

  /// Insert or overwrite; returns true if a new entry was created.
  bool leaf_put(std::string_view key, std::string_view value) {
    DAMKIT_CHECK(is_leaf_);
    return entries_.put(key, value);
  }
  /// Remove `key` if present; returns true if removed.
  bool leaf_erase(std::string_view key) {
    DAMKIT_CHECK(is_leaf_);
    return entries_.erase(key);
  }
  /// Append an entry known to sort after all existing ones (bulk load).
  void leaf_append(std::string_view key, std::string_view value) {
    DAMKIT_CHECK(is_leaf_);
    entries_.append(key, value);
  }

  // --- Internal accessors ---
  size_t child_count() const { return children_.size(); }
  uint64_t child(size_t i) const { return children_[i]; }
  size_t pivot_count() const { return pivots_.count(); }
  kv::Slice pivot(size_t i) const { return pivots_.key(i); }

  /// Index of the child covering `key`: first pivot > key.
  size_t child_index(std::string_view key) const {
    DAMKIT_CHECK(!is_leaf_);
    return pivots_.upper_bound(key);
  }

  /// Seed an internal node with its first child (no pivot yet).
  void internal_init(uint64_t first_child);
  /// Insert `(pivot, right_child)` after child at `child_idx`.
  void internal_insert(size_t child_idx, std::string_view pivot,
                       uint64_t right_child);
  /// Remove pivot `i` and child `i+1` (after a merge of i+1 into i).
  void internal_remove(size_t pivot_idx);
  /// Replace pivot i's key (borrow rebalancing).
  void internal_set_pivot(size_t i, std::string_view key);

  // --- Splitting (both kinds) ---
  struct SplitResult {
    std::string separator;             // pivot to insert into the parent
    std::shared_ptr<BTreeNode> right;  // new right sibling
  };
  /// Split roughly in half by bytes. For internal nodes the median pivot
  /// moves up (classic B-tree); for leaves the separator is the right
  /// node's first key (B+-tree).
  SplitResult split();

  /// Move entries/pivots from `right` (this node's right sibling, with
  /// `separator` between them for internal nodes) into this node. The
  /// caller removes the separator from the parent and frees `right`.
  void merge_from_right(BTreeNode& right, std::string_view separator);

  /// Rebalance with the right sibling by moving whole entries so both end
  /// up near half the combined bytes. Returns the new separator.
  std::string borrow_balance(BTreeNode& right, std::string_view separator);

  // --- Serialization ---
  /// Replace `out` (a std::vector<uint8_t> or a ByteBuffer) with the image.
  template <typename Bytes>
  void serialize(Bytes& out) const;
  /// Parse `image` (a node image, possibly followed by padding), adopting
  /// it as the leaf entries' or the pivots' heap.
  static std::shared_ptr<BTreeNode> deserialize(ByteBuffer&& image);
  /// The same parse of borrowed bytes: copies them into a buffer first.
  static std::shared_ptr<BTreeNode> deserialize(
      std::span<const uint8_t> image);

  /// byte_size() from the records' own length fields (a cross-check).
  uint64_t recomputed_byte_size() const {
    return header_bytes() + child_bytes() * children_.size() +
           entries_.recomputed_bytes() + pivots_.recomputed_bytes();
  }

  /// magic u32 + flags u8 + count u32 + next_leaf u64.
  static uint64_t header_bytes() { return 4 + 1 + 4 + 8; }
  static uint64_t child_bytes() { return 8; }

 private:
  BTreeNode() = default;

  bool is_leaf_ = true;
  node::KvPage entries_;               // leaf only
  node::PivotPage pivots_;             // internal only: child_count - 1
  std::vector<uint64_t> children_;     // internal only
  uint64_t next_leaf_ = kInvalidNode;  // leaf only
};

}  // namespace damkit::btree
