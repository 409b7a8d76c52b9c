#include "btree/btree_node.h"

#include <algorithm>

#include "kv/codec.h"
#include "kv/slice.h"
#include "util/status.h"

namespace damkit::btree {

namespace {

constexpr uint32_t kMagic = 0x42544e44;  // "BTND"

// Record headers: leaf [u16 klen][u32 vlen], pivot [u16 klen].
constexpr size_t kLeafRecordHeader = 6;
constexpr size_t kPivotRecordHeader = 2;

size_t leaf_record_len(const uint8_t* p) {
  return kLeafRecordHeader + load_u16(p) + load_u32(p + 2);
}

size_t pivot_record_len(const uint8_t* p) {
  return kPivotRecordHeader + load_u16(p);
}

std::string_view leaf_record_key(std::string_view rec) {
  return rec.substr(6, load_u16(reinterpret_cast<const uint8_t*>(rec.data())));
}

std::string_view pivot_record_key(std::string_view rec) {
  return rec.substr(2);
}

}  // namespace

uint64_t BTreeNode::header_bytes() {
  // magic u32 + flags u8 + count u32 + next_leaf u64.
  return 4 + 1 + 4 + 8;
}

uint64_t BTreeNode::leaf_entry_bytes(size_t klen, size_t vlen) {
  return 2 + 4 + klen + vlen;  // u16 klen + u32 vlen + payloads
}

uint64_t BTreeNode::pivot_bytes(size_t klen) { return 2 + klen; }

void BTreeNode::encode_leaf_record(uint8_t* p, std::string_view key,
                                   std::string_view value) {
  store_u16(p, static_cast<uint16_t>(key.size()));
  store_u32(p + 2, static_cast<uint32_t>(value.size()));
  std::memcpy(p + 6, key.data(), key.size());
  std::memcpy(p + 6 + key.size(), value.data(), value.size());
}

void BTreeNode::encode_pivot_record(uint8_t* p, std::string_view key) {
  store_u16(p, static_cast<uint16_t>(key.size()));
  std::memcpy(p + 2, key.data(), key.size());
}

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

size_t BTreeNode::lower_bound(std::string_view key) const {
  return page_.lower_bound(key, leaf_record_key);
}

bool BTreeNode::key_equals(size_t i, std::string_view key) const {
  return i < page_.count() && kv::compare(this->key(i), key) == 0;
}

bool BTreeNode::leaf_put(std::string_view key, std::string_view value) {
  DAMKIT_CHECK(is_leaf_);
  const size_t i = lower_bound(key);
  if (key_equals(i, key)) {
    uint8_t* p = page_.replace_alloc(i, leaf_entry_bytes(key.size(),
                                                         value.size()));
    encode_leaf_record(p, key, value);
    return false;
  }
  uint8_t* p =
      page_.insert_alloc(i, leaf_entry_bytes(key.size(), value.size()));
  encode_leaf_record(p, key, value);
  return true;
}

bool BTreeNode::leaf_erase(std::string_view key) {
  DAMKIT_CHECK(is_leaf_);
  const size_t i = lower_bound(key);
  if (!key_equals(i, key)) return false;
  page_.erase(i);
  return true;
}

void BTreeNode::leaf_append(std::string_view key, std::string_view value) {
  DAMKIT_CHECK(is_leaf_);
  DAMKIT_CHECK(page_.empty() ||
               kv::compare(this->key(page_.count() - 1), key) < 0);
  uint8_t* p = page_.insert_alloc(page_.count(),
                                  leaf_entry_bytes(key.size(), value.size()));
  encode_leaf_record(p, key, value);
}

size_t BTreeNode::child_index(std::string_view key) const {
  DAMKIT_CHECK(!is_leaf_);
  return page_.upper_bound(key, pivot_record_key);
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
  uint8_t* p = page_.insert_alloc(child_idx, pivot_bytes(pivot.size()));
  encode_pivot_record(p, pivot);
  children_.insert(children_.begin() + static_cast<ptrdiff_t>(child_idx) + 1,
                   right_child);
}

void BTreeNode::internal_remove(size_t pivot_idx) {
  DAMKIT_CHECK(!is_leaf_);
  DAMKIT_CHECK(pivot_idx < page_.count());
  page_.erase(pivot_idx);
  children_.erase(children_.begin() + static_cast<ptrdiff_t>(pivot_idx) + 1);
}

void BTreeNode::internal_set_pivot(size_t i, std::string_view key) {
  DAMKIT_CHECK(!is_leaf_);
  DAMKIT_CHECK(i < page_.count());
  uint8_t* p = page_.replace_alloc(i, pivot_bytes(key.size()));
  encode_pivot_record(p, key);
}

BTreeNode::SplitResult BTreeNode::split() {
  SplitResult result;
  if (is_leaf_) {
    DAMKIT_CHECK(page_.count() >= 2);
    // Split point: first index where the prefix reaches half the payload.
    const uint64_t payload = byte_size() - header_bytes();
    uint64_t acc = 0;
    size_t m = 0;
    while (m + 1 < page_.count() && acc < payload / 2) {
      acc += page_.record(m).size();
      ++m;
    }
    if (m == 0) m = 1;

    result.right = make_leaf();
    BTreeNode& r = *result.right;
    for (size_t i = m; i < page_.count(); ++i) r.page_.append(page_.record(i));
    page_.truncate(m);
    r.next_leaf_ = next_leaf_;
    // Caller sets this->next_leaf_ to the new node's id once allocated.
    result.separator = std::string(r.key(0));
  } else {
    DAMKIT_CHECK(page_.count() >= 3);
    // Median pivot (by bytes) moves up.
    const uint64_t payload = byte_size() - header_bytes();
    uint64_t acc = child_bytes();
    size_t m = 0;
    while (m + 2 < page_.count() && acc < payload / 2) {
      acc += page_.record(m).size() + child_bytes();
      ++m;
    }
    if (m == 0) m = 1;

    result.separator = std::string(pivot(m));
    result.right = make_internal();
    BTreeNode& r = *result.right;
    for (size_t i = m + 1; i < page_.count(); ++i) {
      r.page_.append(page_.record(i));
    }
    r.children_.assign(children_.begin() + static_cast<ptrdiff_t>(m) + 1,
                       children_.end());
    page_.truncate(m);
    children_.resize(m + 1);
  }
  return result;
}

void BTreeNode::merge_from_right(BTreeNode& right, std::string_view separator) {
  DAMKIT_CHECK(is_leaf_ == right.is_leaf_);
  if (is_leaf_) {
    for (size_t i = 0; i < right.page_.count(); ++i) {
      page_.append(right.page_.record(i));
    }
    next_leaf_ = right.next_leaf_;
  } else {
    uint8_t* p = page_.insert_alloc(page_.count(),
                                    pivot_bytes(separator.size()));
    encode_pivot_record(p, separator);
    for (size_t i = 0; i < right.page_.count(); ++i) {
      page_.append(right.page_.record(i));
    }
    for (uint64_t c : right.children_) children_.push_back(c);
  }
  right.page_.clear();
  right.children_.clear();
}

std::string BTreeNode::borrow_balance(BTreeNode& right,
                                      std::string_view separator) {
  DAMKIT_CHECK(is_leaf_ == right.is_leaf_);
  if (is_leaf_) {
    // Move entries across until the byte sizes are as balanced as possible.
    while (byte_size() < right.byte_size() && right.page_.count() > 1) {
      const uint64_t moved = right.page_.record(0).size();
      if (byte_size() + moved > right.byte_size() - moved &&
          byte_size() + moved > right.byte_size()) {
        break;
      }
      page_.append(right.page_.record(0));
      right.page_.drop_front(1);
    }
    while (right.byte_size() < byte_size() && page_.count() > 1) {
      const uint64_t moved = page_.record(page_.count() - 1).size();
      if (right.byte_size() + moved > byte_size() - moved &&
          right.byte_size() + moved > byte_size()) {
        break;
      }
      right.page_.insert(0, page_.record(page_.count() - 1));
      page_.truncate(page_.count() - 1);
    }
    return std::string(right.key(0));
  }

  // Internal: rotate through the separator.
  std::string sep(separator);
  while (byte_size() < right.byte_size() && right.page_.count() > 1) {
    const uint64_t gain = pivot_bytes(sep.size()) + child_bytes();
    const uint64_t loss = right.page_.record(0).size() + child_bytes();
    if (byte_size() + gain > right.byte_size() - loss) break;
    uint8_t* p = page_.insert_alloc(page_.count(), pivot_bytes(sep.size()));
    encode_pivot_record(p, sep);
    children_.push_back(right.children_.front());
    sep = std::string(right.pivot(0));
    right.page_.drop_front(1);
    right.children_.erase(right.children_.begin());
  }
  while (right.byte_size() < byte_size() && page_.count() > 1) {
    const uint64_t gain = pivot_bytes(sep.size()) + child_bytes();
    const uint64_t loss = page_.record(page_.count() - 1).size() +
                          child_bytes();
    if (right.byte_size() + gain > byte_size() - loss) break;
    uint8_t* p = right.page_.insert_alloc(0, pivot_bytes(sep.size()));
    encode_pivot_record(p, sep);
    right.children_.insert(right.children_.begin(), children_.back());
    sep = std::string(pivot(page_.count() - 1));
    page_.truncate(page_.count() - 1);
    children_.pop_back();
  }
  return sep;
}

void BTreeNode::serialize(std::vector<uint8_t>& out) const {
  out.clear();
  out.reserve(byte_size());
  kv::Writer w(out);
  w.put_u32(kMagic);
  w.put_u8(is_leaf_ ? 1 : 0);
  w.put_u32(static_cast<uint32_t>(is_leaf_ ? page_.count()
                                           : children_.size()));
  w.put_u64(next_leaf_);
  if (!is_leaf_) {
    for (uint64_t c : children_) w.put_u64(c);
  }
  page_.write_to(&out);
  DAMKIT_CHECK_MSG(out.size() == byte_size(),
                   "size accounting drift: serialized "
                       << out.size() << " vs tracked " << byte_size());
}

std::shared_ptr<BTreeNode> BTreeNode::deserialize(
    std::span<const uint8_t> image) {
  kv::Reader r(image);
  DAMKIT_CHECK_MSG(r.get_u32() == kMagic, "bad node magic");
  const bool leaf = r.get_u8() != 0;
  const uint32_t count = r.get_u32();
  const uint64_t next = r.get_u64();
  auto node = leaf ? make_leaf() : make_internal();
  node->next_leaf_ = next;
  if (leaf) {
    node->page_.build_from_prefix(image.data() + r.position(),
                                  image.size() - r.position(), count,
                                  kLeafRecordHeader, leaf_record_len);
  } else {
    node->children_.reserve(count);
    for (uint32_t i = 0; i < count; ++i) node->children_.push_back(r.get_u64());
    node->page_.build_from_prefix(image.data() + r.position(),
                                  image.size() - r.position(),
                                  count == 0 ? 0 : count - 1,
                                  kPivotRecordHeader, pivot_record_len);
  }
  return node;
}

uint64_t BTreeNode::recomputed_byte_size() const {
  uint64_t size = header_bytes();
  if (is_leaf_) {
    for (size_t i = 0; i < page_.count(); ++i) {
      size += leaf_entry_bytes(key(i).size(), value(i).size());
    }
  } else {
    size += child_bytes() * children_.size();
    for (size_t i = 0; i < page_.count(); ++i) {
      size += pivot_bytes(pivot(i).size());
    }
  }
  return size;
}

}  // namespace damkit::btree
