#include "btree/btree_node.h"

#include <algorithm>
#include <utility>

#include "kv/codec.h"
#include "kv/slice.h"
#include "util/status.h"

namespace damkit::btree {

namespace {

constexpr uint32_t kMagic = 0x42544e44;  // "BTND"

}  // namespace

std::shared_ptr<BTreeNode> BTreeNode::make_leaf() {
  auto n = std::shared_ptr<BTreeNode>(new BTreeNode());
  n->is_leaf_ = true;
  return n;
}

std::shared_ptr<BTreeNode> BTreeNode::make_internal() {
  auto n = std::shared_ptr<BTreeNode>(new BTreeNode());
  n->is_leaf_ = false;
  return n;
}

void BTreeNode::internal_init(uint64_t first_child) {
  DAMKIT_CHECK(!is_leaf_);
  DAMKIT_CHECK(children_.empty());
  children_.push_back(first_child);
}

void BTreeNode::internal_insert(size_t child_idx, std::string_view pivot,
                                uint64_t right_child) {
  DAMKIT_CHECK(!is_leaf_);
  DAMKIT_CHECK(child_idx < children_.size());
  pivots_.insert_at(child_idx, pivot);
  children_.insert(children_.begin() + static_cast<ptrdiff_t>(child_idx) + 1,
                   right_child);
}

void BTreeNode::internal_remove(size_t pivot_idx) {
  DAMKIT_CHECK(!is_leaf_);
  DAMKIT_CHECK(pivot_idx < pivots_.count());
  pivots_.erase_at(pivot_idx);
  children_.erase(children_.begin() + static_cast<ptrdiff_t>(pivot_idx) + 1);
}

void BTreeNode::internal_set_pivot(size_t i, std::string_view key) {
  DAMKIT_CHECK(!is_leaf_);
  DAMKIT_CHECK(i < pivots_.count());
  pivots_.replace_at(i, key);
}

BTreeNode::SplitResult BTreeNode::split() {
  SplitResult result;
  if (is_leaf_) {
    result.right = make_leaf();
    BTreeNode& r = *result.right;
    entries_.split_into(r.entries_);
    r.next_leaf_ = next_leaf_;
    // Caller sets this->next_leaf_ to the new node's id once allocated.
    result.separator = std::string(r.key(0));
  } else {
    DAMKIT_CHECK(pivots_.count() >= 3);
    // Median pivot (by bytes) moves up.
    const uint64_t payload = byte_size() - header_bytes();
    uint64_t acc = child_bytes();
    size_t m = 0;
    while (m + 2 < pivots_.count() && acc < payload / 2) {
      acc += pivots_.record(m).size() + child_bytes();
      ++m;
    }
    if (m == 0) m = 1;

    result.separator = std::string(pivot(m));
    result.right = make_internal();
    BTreeNode& r = *result.right;
    r.pivots_.append_range(pivots_, m + 1, pivots_.count());
    r.children_.assign(children_.begin() + static_cast<ptrdiff_t>(m) + 1,
                       children_.end());
    pivots_.truncate(m);
    children_.resize(m + 1);
  }
  return result;
}

void BTreeNode::merge_from_right(BTreeNode& right, std::string_view separator) {
  DAMKIT_CHECK(is_leaf_ == right.is_leaf_);
  if (is_leaf_) {
    entries_.append_all(right.entries_);
    next_leaf_ = right.next_leaf_;
  } else {
    pivots_.insert_at(pivots_.count(), separator);
    pivots_.append_all(right.pivots_);
    children_.insert(children_.end(), right.children_.begin(),
                     right.children_.end());
  }
  right.entries_.clear();
  right.pivots_.clear();
  right.children_.clear();
}

std::string BTreeNode::borrow_balance(BTreeNode& right,
                                      std::string_view separator) {
  DAMKIT_CHECK(is_leaf_ == right.is_leaf_);
  if (is_leaf_) {
    // Move entries across until the byte sizes are as balanced as possible.
    while (byte_size() < right.byte_size() && right.entries_.count() > 1) {
      const uint64_t moved = right.entries_.record(0).size();
      if (byte_size() + moved > right.byte_size() - moved &&
          byte_size() + moved > right.byte_size()) {
        break;
      }
      entries_.append_range(right.entries_, 0, 1);
      right.entries_.drop_front(1);
    }
    while (right.byte_size() < byte_size() && entries_.count() > 1) {
      const size_t last = entries_.count() - 1;
      const uint64_t moved = entries_.record(last).size();
      if (right.byte_size() + moved > byte_size() - moved &&
          right.byte_size() + moved > byte_size()) {
        break;
      }
      right.entries_.insert_at(0, entries_.key(last), entries_.value(last));
      entries_.truncate(last);
    }
    return std::string(right.key(0));
  }

  // Internal: rotate through the separator.
  std::string sep(separator);
  while (byte_size() < right.byte_size() && right.pivots_.count() > 1) {
    const uint64_t gain = node::PivotRecord::encoded_size(sep.size()) +
                          child_bytes();
    const uint64_t loss = right.pivots_.record(0).size() + child_bytes();
    if (byte_size() + gain > right.byte_size() - loss) break;
    pivots_.insert_at(pivots_.count(), sep);
    children_.push_back(right.children_.front());
    sep = std::string(right.pivot(0));
    right.pivots_.drop_front(1);
    right.children_.erase(right.children_.begin());
  }
  while (right.byte_size() < byte_size() && pivots_.count() > 1) {
    const size_t last = pivots_.count() - 1;
    const uint64_t gain = node::PivotRecord::encoded_size(sep.size()) +
                          child_bytes();
    const uint64_t loss = pivots_.record(last).size() + child_bytes();
    if (right.byte_size() + gain > byte_size() - loss) break;
    right.pivots_.insert_at(0, sep);
    // Prepend by append-and-rotate: an insert at begin() inlines a
    // reallocation path gcc 12 -O3 reports under -Wnull-dereference.
    right.children_.push_back(children_.back());
    std::rotate(right.children_.begin(), right.children_.end() - 1,
                right.children_.end());
    sep = std::string(pivot(last));
    pivots_.truncate(last);
    children_.pop_back();
  }
  return sep;
}

template <typename Bytes>
void BTreeNode::serialize(Bytes& out) const {
  out.clear();
  out.reserve(byte_size());
  kv::Writer w(out);
  w.put_u32(kMagic);
  w.put_u8(is_leaf_ ? 1 : 0);
  w.put_u32(static_cast<uint32_t>(is_leaf_ ? entries_.count()
                                           : children_.size()));
  w.put_u64(next_leaf_);
  if (is_leaf_) {
    entries_.write_to(&out);
  } else {
    for (uint64_t c : children_) w.put_u64(c);
    pivots_.write_to(&out);
  }
  DAMKIT_CHECK_MSG(out.size() == byte_size(),
                   "size accounting drift: serialized "
                       << out.size() << " vs tracked " << byte_size());
}
template void BTreeNode::serialize(std::vector<uint8_t>&) const;
template void BTreeNode::serialize(ByteBuffer&) const;

std::shared_ptr<BTreeNode> BTreeNode::deserialize(ByteBuffer&& image) {
  kv::Reader r(image);
  DAMKIT_CHECK_MSG(r.get_u32() == kMagic, "bad node magic");
  const bool leaf = r.get_u8() != 0;
  const uint32_t count = r.get_u32();
  const uint64_t next = r.get_u64();
  auto node = leaf ? make_leaf() : make_internal();
  node->next_leaf_ = next;
  if (leaf) {
    node->entries_.adopt_prefix(std::move(image), r.position(), count);
  } else {
    node->children_.reserve(count);
    for (uint32_t i = 0; i < count; ++i) node->children_.push_back(r.get_u64());
    node->pivots_.adopt_prefix(std::move(image), r.position(),
                               count == 0 ? 0 : count - 1);
  }
  return node;
}

std::shared_ptr<BTreeNode> BTreeNode::deserialize(
    std::span<const uint8_t> image) {
  return deserialize(copy_bytes(image));
}

}  // namespace damkit::btree
