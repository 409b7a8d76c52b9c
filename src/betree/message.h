// Bε-tree messages (§3): modifications are encoded as messages that drift
// down the tree in node buffers and are eventually applied to the leaves.
//
// Three kinds, matching the write-optimized dictionaries the paper cites:
//   kPut       — insert-or-overwrite with the payload value.
//   kTombstone — delete (the payload is empty).
//   kUpsert    — blind read-modify-write: the payload is an 8-byte
//                little-endian delta added to the current 8-byte LE
//                counter value (missing/deleted counts as zero). Upserts
//                are what make Bε-trees strictly faster than B-trees for
//                read-modify-write workloads: no read is needed.
//
// A message has one form from put to leaf: the node::TaggedRecord wire
// record, whose tag is the kind. MessageView borrows one message's fields;
// MsgSegment, the only owned form, packs records back to back in arrival
// order (a node buffer, a segment a flush moves down, the messages a point
// query collects); MsgRange walks a segment as views.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "node/record.h"

namespace damkit::betree {

enum class MessageKind : uint8_t { kPut = 0, kTombstone = 1, kUpsert = 2 };

/// One message's fields, borrowed from a packed record (valid while its
/// segment is unmutated) or from a caller's key and payload.
struct MessageView {
  MessageKind kind = MessageKind::kPut;
  std::string_view key;
  /// The value for kPut, the delta for kUpsert, empty for kTombstone.
  std::string_view payload;

  /// Serialized footprint: the size of the message's record.
  uint64_t bytes() const {
    return node::TaggedRecord::encoded_size(key.size(), payload.size());
  }
};

/// Forward range over a packed message segment, in arrival order. Node
/// buffer segments hold node::TaggedRecords back to back, exactly as the
/// serialized node lays them out, so segments round-trip by memcpy.
class MsgRange {
 public:
  MsgRange() = default;
  MsgRange(const uint8_t* data, size_t size, size_t count)
      : data_(data), size_(size), count_(count) {}

  class iterator {
   public:
    explicit iterator(const uint8_t* p) : p_(p) {}
    MessageView operator*() const {  // the tag is the kind
      const node::TaggedRecord::View rec = node::TaggedRecord::view(p_);
      return MessageView{static_cast<MessageKind>(rec.tag), rec.key(),
                         rec.value()};
    }
    iterator& operator++() {
      p_ += node::TaggedRecord::length(p_);
      return *this;
    }
    bool operator==(const iterator& o) const { return p_ == o.p_; }
    bool operator!=(const iterator& o) const { return p_ != o.p_; }

   private:
    const uint8_t* p_;
  };

  iterator begin() const { return iterator(data_); }
  iterator end() const { return iterator(data_ + size_); }
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// O(i) positional decode — test/debug convenience only.
  MessageView operator[](size_t i) const {
    iterator it = begin();
    for (; i > 0; --i) ++it;
    return *it;
  }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t count_ = 0;
};

/// Messages packed as node::TaggedRecords back to back, in arrival order
/// (append-only; a serialized node embeds a buffer's bytes verbatim).
struct MsgSegment {
  std::vector<uint8_t> bytes;
  uint32_t count = 0;

  /// Append `msg` as one record.
  void add(const MessageView& msg) {
    const size_t old = bytes.size();
    bytes.resize(old + msg.bytes());
    node::TaggedRecord::encode(bytes.data() + old,
                               static_cast<uint8_t>(msg.kind), msg.key,
                               msg.payload);
    ++count;
  }
  /// Borrowed walk in arrival order; invalidated by any mutation.
  MsgRange range() const {
    return MsgRange(bytes.data(), bytes.size(), count);
  }
};

/// Encode a (possibly negative) upsert delta as a kUpsert payload (the
/// kv::encode_counter format; arithmetic wraps).
std::string encode_delta(int64_t d);

/// Apply one message to the current state of a key (nullopt = absent).
/// Returns the new state (nullopt = absent/deleted).
std::optional<std::string> apply_message(std::optional<std::string> base,
                                         const MessageView& msg);

}  // namespace damkit::betree
