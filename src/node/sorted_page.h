// SortedPage<Rec>: a SlottedPage of one record format (node/record.h) in
// strictly ascending key order; the type names the format, so no caller
// passes header sizes, length readers or key extractors. Mutators take the
// fields after the key and encode them in place. Views die on mutation.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "kv/slice.h"
#include "node/record.h"
#include "node/slotted_page.h"
#include "util/bytes.h"
#include "util/status.h"

namespace damkit::node {

template <typename Rec>
class SortedPage {
 public:
  size_t count() const { return page_.count(); }
  bool empty() const { return page_.empty(); }
  /// Sum of the records' encoded sizes: the page's wire-image size.
  size_t live_bytes() const { return page_.live_bytes(); }
  /// True when the heap holds the records back to back, in order.
  bool compact() const { return page_.compact(); }

  std::string_view record(size_t i) const { return page_.record(i); }
  std::string_view key(size_t i) const { return Rec::key(page_.record(i)); }
  std::string_view value(size_t i) const {
    return Rec::value(page_.record(i));
  }

  /// First index whose key is >= `key` (upper_bound: > `key`).
  size_t lower_bound(std::string_view key) const {
    return page_.lower_bound(key, KeyOf{});
  }
  size_t upper_bound(std::string_view key) const {
    return page_.upper_bound(key, KeyOf{});
  }
  /// True if record `i` exists and its key equals `key`.
  bool key_equals(size_t i, std::string_view key) const {
    return i < count() && kv::compare(this->key(i), key) == 0;
  }
  std::optional<size_t> find(std::string_view key) const {
    const size_t i = lower_bound(key);
    if (!key_equals(i, key)) return std::nullopt;
    return i;
  }

  /// Insert or replace the record for `key`; true if the key was new.
  template <typename... Fields>
  bool put(std::string_view key, const Fields&... fields) {
    const size_t i = lower_bound(key);
    if (key_equals(i, key)) {
      replace_at(i, key, fields...);
      return false;
    }
    insert_at(i, key, fields...);
    return true;
  }
  /// Remove the record for `key`; true if there was one.
  bool erase(std::string_view key) {
    const std::optional<size_t> i = find(key);
    if (i.has_value()) page_.erase(*i);
    return i.has_value();
  }
  /// Append a record whose key sorts after every key here (CHECKed).
  template <typename... Fields>
  void append(std::string_view key, const Fields&... fields) {
    DAMKIT_CHECK(empty() || kv::compare(this->key(count() - 1), key) < 0);
    insert_at(count(), key, fields...);
  }

  // Positional edits, for internal nodes whose pivots follow their
  // children and for rebalancing; the caller keeps the keys ascending.
  template <typename... Fields>
  void insert_at(size_t pos, std::string_view key, const Fields&... fields) {
    Rec::encode(page_.insert_alloc(pos, size_of(key, fields...)), key,
                fields...);
  }
  template <typename... Fields>
  void replace_at(size_t pos, std::string_view key, const Fields&... fields) {
    Rec::encode(page_.replace_alloc(pos, size_of(key, fields...)), key,
                fields...);
  }
  void erase_at(size_t pos) { page_.erase(pos); }
  void truncate(size_t n) { page_.truncate(n); }      // keep [0, n)
  void drop_front(size_t n) { page_.drop_front(n); }  // drop [0, n)
  void clear() { page_.clear(); }
  /// Copy records [from, to) of `other` after every record here.
  void append_range(const SortedPage& other, size_t from, size_t to) {
    for (size_t i = from; i < to; ++i) page_.append(other.record(i));
  }
  void append_all(const SortedPage& other) {
    append_range(other, 0, other.count());
  }

  /// Split at half the bytes: keep the shortest prefix that reaches half
  /// the live bytes (at least one record, at most all but one) and move
  /// the rest to the empty page `right`.
  void split_into(SortedPage& right) {
    DAMKIT_CHECK(count() >= 2 && right.empty());
    const size_t half = live_bytes() / 2;
    size_t acc = 0;
    size_t m = 0;
    while (m + 1 < count() && acc < half) acc += page_.record(m++).size();
    if (m == 0) m = 1;
    right.append_range(*this, m, count());
    page_.truncate(m);
  }

  /// Rebuild from the `records` records at the front of [data, data +
  /// max_size), copying them; returns the bytes they occupy.
  size_t parse_prefix(const uint8_t* data, size_t max_size, size_t records) {
    return page_.build_from_prefix(data, max_size, records, Rec::kHeaderBytes,
                                   LengthOf{});
  }
  /// Rebuild from the `records` records that start `base` bytes into
  /// `image`, adopting it as the heap (no copy); returns their bytes.
  size_t adopt_prefix(ByteBuffer&& image, size_t base, size_t records) {
    return page_.adopt_prefix(std::move(image), base, records,
                              Rec::kHeaderBytes, LengthOf{});
  }
  /// Rebuild from an image of exactly `records` records.
  void parse(const uint8_t* data, size_t size, size_t records) {
    page_.build_from_image(data, size, records, Rec::kHeaderBytes, LengthOf{});
  }
  /// The bytes parse_prefix would consume, walked and CHECKed the same way
  /// but not copied.
  static size_t prefix_bytes(const uint8_t* data, size_t max_size,
                             size_t records) {
    return SlottedPage::walk_prefix(data, max_size, records, Rec::kHeaderBytes,
                                    LengthOf{}, [](size_t, size_t) {});
  }
  /// live_bytes() summed from the records' own length fields instead of
  /// the slots: a cross-check that the two agree.
  size_t recomputed_bytes() const {
    size_t bytes = 0;
    for (size_t i = 0; i < count(); ++i) {
      bytes += Rec::length(detail::bytes_of(record(i)));
    }
    return bytes;
  }
  /// Append the wire image (the records back to back) to the byte vector
  /// `out`.
  template <typename Bytes>
  void write_to(Bytes* out) const { page_.write_to(out); }

 private:
  // One functor type per format, so searches and walks inline its accessor
  // instead of calling one shared function pointer.
  struct KeyOf {
    std::string_view operator()(std::string_view rec) const {
      return Rec::key(rec);
    }
  };
  struct LengthOf {
    size_t operator()(const uint8_t* p) const { return Rec::length(p); }
  };
  template <typename... Fields>
  static size_t size_of(std::string_view key, const Fields&... fields) {
    return Rec::encoded_size(key.size(), std::string_view(fields).size()...);
  }

  SlottedPage page_;
};

using KvPage = SortedPage<KvRecord>;
using PivotPage = SortedPage<PivotRecord>;
using TaggedPage = SortedPage<TaggedRecord>;

}  // namespace damkit::node
