#include "betree/betree_node.h"

#include <utility>

#include "kv/codec.h"
#include "kv/slice.h"
#include "util/status.h"

namespace damkit::betree {

namespace {

constexpr uint32_t kMagic = 0x4245544e;  // "BETN"

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

void BeTreeNode::leaf_apply(const MessageView& msg) {
  DAMKIT_CHECK(is_leaf_);
  const size_t i = entries_.lower_bound(msg.key);
  const bool present = entries_.key_equals(i, msg.key);
  std::optional<std::string> base;
  if (present) base = std::string(value(i));
  std::optional<std::string> next = apply_message(std::move(base), msg);

  if (!next.has_value()) {
    if (present) entries_.erase_at(i);
  } else if (present) {
    entries_.replace_at(i, msg.key, *next);
  } else {
    entries_.insert_at(i, msg.key, *next);
  }
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
  pivots_.insert_at(child_idx, pivot);
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
  pivots_.erase_at(pivot_idx);
  children_.erase(children_.begin() + static_cast<ptrdiff_t>(victim));
  segments_.erase(segments_.begin() + static_cast<ptrdiff_t>(victim));
}

void BeTreeNode::buffer_add(size_t child_idx, const MessageView& msg) {
  DAMKIT_CHECK(!is_leaf_);
  segments_[child_idx].add(msg);
  total_buffer_bytes_ += msg.bytes();
}

MsgSegment BeTreeNode::take_buffer(size_t child_idx) {
  DAMKIT_CHECK(!is_leaf_);
  total_buffer_bytes_ -= segments_[child_idx].bytes.size();
  return std::exchange(segments_[child_idx], MsgSegment());
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
                                 MsgSegment* out) const {
  for (const MessageView m : buffer(child_idx)) {
    if (kv::compare(m.key, key) == 0) out->add(m);
  }
}

BeTreeNode::SplitResult BeTreeNode::split() {
  SplitResult result;
  if (is_leaf_) {
    result.right = make_leaf();
    entries_.split_into(result.right->entries_);
    result.separator = std::string(result.right->key(0));
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
  r.pivots_.append_range(pivots_, c, pivots_.count());
  total_buffer_bytes_ -= r.total_buffer_bytes_;
  pivots_.truncate(c - 1);
  children_.resize(c);
  segments_.resize(c);
  return result;
}

void BeTreeNode::leaf_merge_from_right(BeTreeNode& right) {
  DAMKIT_CHECK(is_leaf_ && right.is_leaf_);
  entries_.append_all(right.entries_);
  right.entries_.clear();
}

template <typename Bytes>
void BeTreeNode::serialize(Bytes& out) const {
  out.clear();
  out.reserve(byte_size());
  kv::Writer w(out);
  w.put_u32(kMagic);
  w.put_u8(is_leaf_ ? 1 : 0);
  w.put_u32(static_cast<uint32_t>(is_leaf_ ? entries_.count()
                                           : children_.size()));
  if (is_leaf_) {
    entries_.write_to(&out);
  } else {
    for (size_t i = 0; i < children_.size(); ++i) {
      w.put_u64(children_[i]);
      w.put_u32(segments_[i].count);
      const std::vector<uint8_t>& bytes = segments_[i].bytes;
      w.put_bytes({reinterpret_cast<const char*>(bytes.data()), bytes.size()});
    }
    pivots_.write_to(&out);
  }
  DAMKIT_CHECK_MSG(out.size() == byte_size(),
                   "size accounting drift: serialized "
                       << out.size() << " vs tracked " << byte_size());
}
template void BeTreeNode::serialize(std::vector<uint8_t>&) const;
template void BeTreeNode::serialize(ByteBuffer&) const;

std::shared_ptr<BeTreeNode> BeTreeNode::deserialize(ByteBuffer&& image) {
  kv::Reader r(image);
  DAMKIT_CHECK_MSG(r.get_u32() == kMagic, "bad betree node magic");
  const bool leaf = r.get_u8() != 0;
  const uint32_t count = r.get_u32();
  auto node = leaf ? make_leaf() : make_internal();
  if (leaf) {
    node->entries_.adopt_prefix(std::move(image), r.position(), count);
    return node;
  }
  // Internal layout: per child [u64 child][u32 msg count][msg records...],
  // then the pivot records. One buffer cannot own many segments, so each
  // child's message segment is walked as node::TaggedRecords and captured
  // as one bulk copy, and the pivots are copied too.
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
    const size_t len =
        node::TaggedPage::prefix_bytes(base + off, size - off, msgs);
    node->segments_[i] = MsgSegment{{base + off, base + off + len}, msgs};
    node->total_buffer_bytes_ += len;
    off += len;
  }
  node->pivots_.parse_prefix(base + off, size - off,
                             count == 0 ? 0 : count - 1);
  return node;
}

std::shared_ptr<BeTreeNode> BeTreeNode::deserialize(
    std::span<const uint8_t> image) {
  return deserialize(copy_bytes(image));
}

uint64_t BeTreeNode::recomputed_byte_size() const {
  uint64_t size = header_bytes() + child_bytes() * children_.size() +
                  entries_.recomputed_bytes() + pivots_.recomputed_bytes();
  for (size_t i = 0; i < children_.size(); ++i) {
    for (const MessageView m : buffer(i)) size += m.bytes();
  }
  return size;
}

}  // namespace damkit::betree
