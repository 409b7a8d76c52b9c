#include "betree/betree_node.h"

#include <algorithm>
#include <cstring>

#include "kv/codec.h"
#include "kv/slice.h"
#include "util/status.h"

namespace damkit::betree {

namespace {

constexpr uint32_t kMagic = 0x4245544e;  // "BETN"

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

void encode_leaf_record(uint8_t* p, std::string_view key,
                        std::string_view value) {
  store_u16(p, static_cast<uint16_t>(key.size()));
  store_u32(p + 2, static_cast<uint32_t>(value.size()));
  std::memcpy(p + 6, key.data(), key.size());
  std::memcpy(p + 6 + key.size(), value.data(), value.size());
}

void encode_pivot_record(uint8_t* p, std::string_view key) {
  store_u16(p, static_cast<uint16_t>(key.size()));
  std::memcpy(p + 2, key.data(), key.size());
}

}  // namespace

std::shared_ptr<BeTreeNode> BeTreeNode::make_leaf() {
  auto n = std::shared_ptr<BeTreeNode>(new BeTreeNode());
  n->is_leaf_ = true;
  return n;
}

std::shared_ptr<BeTreeNode> BeTreeNode::make_internal() {
  auto n = std::shared_ptr<BeTreeNode>(new BeTreeNode());
  n->is_leaf_ = false;
  return n;
}

size_t BeTreeNode::lower_bound(std::string_view key) const {
  return page_.lower_bound(key, leaf_record_key);
}

bool BeTreeNode::key_equals(size_t i, std::string_view key) const {
  return i < page_.count() && kv::compare(this->key(i), key) == 0;
}

void BeTreeNode::leaf_apply(const Message& msg) {
  DAMKIT_CHECK(is_leaf_);
  const size_t i = lower_bound(msg.key);
  const bool present = key_equals(i, msg.key);
  std::optional<std::string> base;
  if (present) base = std::string(value(i));
  std::optional<std::string> next = apply_message(std::move(base), msg.view());

  if (next.has_value()) {
    if (present) {
      uint8_t* p = page_.replace_alloc(
          i, leaf_entry_bytes(msg.key.size(), next->size()));
      encode_leaf_record(p, msg.key, *next);
    } else {
      uint8_t* p = page_.insert_alloc(
          i, leaf_entry_bytes(msg.key.size(), next->size()));
      encode_leaf_record(p, msg.key, *next);
    }
  } else if (present) {
    page_.erase(i);
  }
}

void BeTreeNode::leaf_append(std::string_view key, std::string_view value) {
  DAMKIT_CHECK(is_leaf_);
  DAMKIT_CHECK(page_.empty() ||
               kv::compare(this->key(page_.count() - 1), key) < 0);
  uint8_t* p = page_.insert_alloc(page_.count(),
                                  leaf_entry_bytes(key.size(), value.size()));
  encode_leaf_record(p, key, value);
}

size_t BeTreeNode::child_index(std::string_view key) const {
  DAMKIT_CHECK(!is_leaf_);
  return pivots_.upper_bound(key, pivot_record_key);
}

void BeTreeNode::internal_init(uint64_t first_child) {
  DAMKIT_CHECK(!is_leaf_);
  DAMKIT_CHECK(children_.empty());
  children_.push_back(first_child);
  segments_.emplace_back();
}

void BeTreeNode::internal_insert(size_t child_idx, std::string_view pivot,
                                 uint64_t right_child) {
  DAMKIT_CHECK(!is_leaf_);
  DAMKIT_CHECK(child_idx < children_.size());
  uint8_t* p = pivots_.insert_alloc(child_idx, pivot_bytes(pivot.size()));
  encode_pivot_record(p, pivot);
  children_.insert(children_.begin() + static_cast<ptrdiff_t>(child_idx) + 1,
                   right_child);
  segments_.insert(segments_.begin() + static_cast<ptrdiff_t>(child_idx) + 1,
                   MsgSegment());
}

void BeTreeNode::internal_remove_child(size_t pivot_idx) {
  DAMKIT_CHECK(!is_leaf_);
  DAMKIT_CHECK(pivot_idx < pivots_.count());
  const size_t victim = pivot_idx + 1;
  // Fold the removed child's pending messages into its left neighbour
  // (which now covers the union of both ranges). Ranges are disjoint, so
  // per-key ordering is unaffected by concatenation.
  MsgSegment& left = segments_[pivot_idx];
  MsgSegment& gone = segments_[victim];
  left.bytes.insert(left.bytes.end(), gone.bytes.begin(), gone.bytes.end());
  left.count += gone.count;
  pivots_.erase(pivot_idx);
  children_.erase(children_.begin() + static_cast<ptrdiff_t>(victim));
  segments_.erase(segments_.begin() + static_cast<ptrdiff_t>(victim));
}

void BeTreeNode::buffer_add(size_t child_idx, const Message& msg) {
  DAMKIT_CHECK(!is_leaf_);
  MsgSegment& s = segments_[child_idx];
  const size_t b = static_cast<size_t>(msg.bytes());
  const size_t old = s.bytes.size();
  s.bytes.resize(old + b);
  encode_message_record(s.bytes.data() + old, msg.kind, msg.key, msg.payload);
  s.count += 1;
  total_buffer_bytes_ += b;
}

std::vector<Message> BeTreeNode::buffer_take(size_t child_idx) {
  DAMKIT_CHECK(!is_leaf_);
  MsgSegment& s = segments_[child_idx];
  std::vector<Message> out;
  out.reserve(s.count);
  for (const MessageView m : buffer(child_idx)) out.push_back(m.to_message());
  total_buffer_bytes_ -= s.bytes.size();
  s.bytes.clear();
  s.count = 0;
  return out;
}

size_t BeTreeNode::fullest_child() const {
  DAMKIT_CHECK(!is_leaf_);
  size_t best = 0;
  for (size_t i = 1; i < segments_.size(); ++i) {
    if (segments_[i].bytes.size() > segments_[best].bytes.size()) best = i;
  }
  return best;
}

void BeTreeNode::collect_for_key(size_t child_idx, std::string_view key,
                                 std::vector<Message>* out) const {
  for (const MessageView m : buffer(child_idx)) {
    if (kv::compare(m.key, key) == 0) out->push_back(m.to_message());
  }
}

BeTreeNode::SplitResult BeTreeNode::split() {
  SplitResult result;
  if (is_leaf_) {
    DAMKIT_CHECK(page_.count() >= 2);
    const uint64_t payload = byte_size() - header_bytes();
    uint64_t acc = 0;
    size_t m = 0;
    while (m + 1 < page_.count() && acc < payload / 2) {
      acc += page_.record(m).size();
      ++m;
    }
    if (m == 0) m = 1;
    result.right = make_leaf();
    BeTreeNode& r = *result.right;
    for (size_t i = m; i < page_.count(); ++i) r.page_.append(page_.record(i));
    page_.truncate(m);
    result.separator = std::string(r.key(0));
    return result;
  }

  // Internal: split at the child boundary closest to half the bytes.
  DAMKIT_CHECK(children_.size() >= 2);
  const uint64_t payload = byte_size() - header_bytes();
  uint64_t acc = 0;
  size_t c = 1;  // boundary: left keeps children [0, c)
  for (; c < children_.size() - 1; ++c) {
    acc += child_bytes() + segments_[c - 1].bytes.size() +
           pivots_.record(c - 1).size();
    if (acc >= payload / 2) {
      ++c;
      break;
    }
  }
  if (c >= children_.size()) c = children_.size() - 1;

  result.separator = std::string(pivot(c - 1));
  result.right = make_internal();
  BeTreeNode& r = *result.right;
  for (size_t i = c; i < children_.size(); ++i) {
    r.children_.push_back(children_[i]);
    r.segments_.push_back(std::move(segments_[i]));
    r.total_buffer_bytes_ += r.segments_.back().bytes.size();
  }
  for (size_t i = c; i < pivots_.count(); ++i) {
    r.pivots_.append(pivots_.record(i));
  }
  total_buffer_bytes_ -= r.total_buffer_bytes_;
  pivots_.truncate(c - 1);
  children_.resize(c);
  segments_.resize(c);
  return result;
}

void BeTreeNode::leaf_merge_from_right(BeTreeNode& right) {
  DAMKIT_CHECK(is_leaf_ && right.is_leaf_);
  for (size_t i = 0; i < right.page_.count(); ++i) {
    page_.append(right.page_.record(i));
  }
  right.page_.clear();
}

void BeTreeNode::serialize(std::vector<uint8_t>& out) const {
  out.clear();
  out.reserve(byte_size());
  kv::Writer w(out);
  w.put_u32(kMagic);
  w.put_u8(is_leaf_ ? 1 : 0);
  w.put_u32(static_cast<uint32_t>(is_leaf_ ? page_.count()
                                           : children_.size()));
  if (is_leaf_) {
    page_.write_to(&out);
  } else {
    for (size_t i = 0; i < children_.size(); ++i) {
      w.put_u64(children_[i]);
      w.put_u32(segments_[i].count);
      out.insert(out.end(), segments_[i].bytes.begin(),
                 segments_[i].bytes.end());
    }
    pivots_.write_to(&out);
  }
  DAMKIT_CHECK_MSG(out.size() == byte_size(),
                   "size accounting drift: serialized "
                       << out.size() << " vs tracked " << byte_size());
}

std::shared_ptr<BeTreeNode> BeTreeNode::deserialize(
    std::span<const uint8_t> image) {
  kv::Reader r(image);
  DAMKIT_CHECK_MSG(r.get_u32() == kMagic, "bad betree node magic");
  const bool leaf = r.get_u8() != 0;
  const uint32_t count = r.get_u32();
  auto node = leaf ? make_leaf() : make_internal();
  if (leaf) {
    node->page_.build_from_prefix(image.data() + r.position(),
                                  image.size() - r.position(), count,
                                  kLeafRecordHeader, leaf_record_len);
    return node;
  }
  // Internal layout: per child [u64 child][u32 msg count][msg records...],
  // then the pivot records. Walked with a manual cursor so each child's
  // message segment is captured as one bulk copy.
  const uint8_t* base = image.data();
  const size_t size = image.size();
  size_t off = r.position();
  node->children_.reserve(count);
  node->segments_.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    DAMKIT_CHECK_MSG(off + 12 <= size,
                     "short read: betree child header overruns the image");
    node->children_.push_back(load_u64(base + off));
    const uint32_t msgs = load_u32(base + off + 8);
    off += 12;
    const size_t seg_start = off;
    for (uint32_t j = 0; j < msgs; ++j) {
      DAMKIT_CHECK_MSG(off + 7 <= size,
                       "short read: message header overruns the image");
      const size_t len = message_record_len(base + off);
      DAMKIT_CHECK_MSG(off + len <= size,
                       "short read: message record overruns the image");
      off += len;
    }
    MsgSegment& s = node->segments_[i];
    s.bytes.assign(base + seg_start, base + off);
    s.count = msgs;
    node->total_buffer_bytes_ += s.bytes.size();
  }
  node->pivots_.build_from_prefix(base + off, size - off,
                                  count == 0 ? 0 : count - 1,
                                  kPivotRecordHeader, pivot_record_len);
  return node;
}

uint64_t BeTreeNode::recomputed_byte_size() const {
  uint64_t size = header_bytes();
  if (is_leaf_) {
    for (size_t i = 0; i < page_.count(); ++i) {
      size += leaf_entry_bytes(key(i).size(), value(i).size());
    }
    return size;
  }
  for (size_t i = 0; i < children_.size(); ++i) {
    size += child_bytes();
    for (const MessageView m : buffer(i)) size += m.bytes();
  }
  for (size_t i = 0; i < pivots_.count(); ++i) {
    size += pivot_bytes(pivot(i).size());
  }
  return size;
}

}  // namespace damkit::betree
