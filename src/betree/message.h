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
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "node/record.h"

namespace damkit::betree {

enum class MessageKind : uint8_t { kPut = 0, kTombstone = 1, kUpsert = 2 };

struct MessageView;

struct Message {
  MessageKind kind = MessageKind::kPut;
  std::string key;
  std::string payload;  // value for kPut, delta for kUpsert, empty for kTombstone

  /// Serialized footprint of a message with the given sizes.
  static uint64_t bytes_for(size_t key_len, size_t payload_len) {
    return node::TaggedRecord::encoded_size(key_len, payload_len);
  }
  uint64_t bytes() const { return bytes_for(key.size(), payload.size()); }
  /// Borrowed view of this message; valid while the message is alive and
  /// unmodified.
  MessageView view() const;
};

/// Zero-copy view of one message record; valid while the backing segment
/// is unmutated.
struct MessageView {
  MessageKind kind = MessageKind::kPut;
  std::string_view key;
  std::string_view payload;

  Message to_message() const {
    return Message{kind, std::string(key), std::string(payload)};
  }
  uint64_t bytes() const {
    return Message::bytes_for(key.size(), payload.size());
  }
};

inline MessageView Message::view() const {
  return MessageView{kind, key, payload};
}

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

/// Encode a (possibly negative) upsert delta as a kUpsert payload (the
/// kv::encode_counter format; arithmetic wraps).
std::string encode_delta(int64_t d);

/// Apply one message to the current state of a key (nullopt = absent).
/// Returns the new state (nullopt = absent/deleted).
std::optional<std::string> apply_message(std::optional<std::string> base,
                                         const MessageView& msg);

}  // namespace damkit::betree
