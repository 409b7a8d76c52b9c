// SlottedPage: the zero-copy in-memory record container under every node
// and block parse. Records stay *in wire format* in one contiguous heap:
//
//   heap_   [base_ bytes of node header][packed record bytes] (append-only;
//           rewritten only on compaction)
//   slots_  {heap offset, length} per record, kept in logical (key) order
//
// A node read from the device is parsed by adoption (adopt_prefix): the
// page takes the read buffer as its heap and walks the record headers in
// place, so the device copy is the only copy; the records start base_
// bytes in, after the node header. Borrowed bytes (SSTable blocks, Bε-tree
// pivots) are parsed by one bulk copy (build_from_prefix); both share one
// walk over stored records (walk_prefix). Serialize of an untouched page is
// one memcpy (write_to), and record(i) is a zero-copy std::string_view into
// the heap. The slot array is an in-memory sidecar, never part of the wire
// image. Engines use the typed node::SortedPage (node/sorted_page.h) over it.
//
// Mutations append new bytes to the heap and edit the slot array;
// overwritten/erased bytes become garbage that is reclaimed by an
// opportunistic compaction pass once it exceeds the live size (amortized
// O(1) per byte). Record views are invalidated by any mutation, and a
// record passed into a mutator must not alias this page's own heap.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "kv/slice.h"
#include "util/bytes.h"
#include "util/status.h"

namespace damkit::node {

class SlottedPage {
 public:
  size_t count() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }
  /// Sum of live record lengths (== the wire-image size of this page).
  size_t live_bytes() const { return live_bytes_; }

  /// Zero-copy view of record `i`. Invalidated by any mutation.
  std::string_view record(size_t i) const {
    const Slot& s = slots_[i];
    return std::string_view(reinterpret_cast<const char*>(heap_.data()) + s.off,
                            s.len);
  }

  void clear() {
    heap_.clear();
    slots_.clear();
    base_ = 0;
    live_bytes_ = 0;
    compact_ = true;
    uniform_len_ = 0;
  }

  /// Rebuild from a wire image: one walk over the record headers
  /// (`len_of(p)` returns the full record length at p, reading only the
  /// `header_bytes` fixed-size record header there), then one bulk copy.
  /// No per-entry allocations.
  template <typename LenOf>
  void build_from_image(const uint8_t* data, size_t size, size_t entries,
                        size_t header_bytes, LenOf&& len_of) {
    const size_t used =
        build_from_prefix(data, size, entries, header_bytes, len_of);
    DAMKIT_CHECK_MSG(used == size, "slotted image has trailing bytes");
  }

  /// Like build_from_image, but the records occupy only a prefix of
  /// [data, data + max_size) of borrowed bytes. Walks the headers to find
  /// the end, then copies exactly the live prefix. Returns the number of
  /// bytes consumed.
  template <typename LenOf>
  size_t build_from_prefix(const uint8_t* data, size_t max_size,
                           size_t entries, size_t header_bytes,
                           LenOf&& len_of) {
    const size_t used =
        index_prefix(data, max_size, 0, entries, header_bytes, len_of);
    heap_.clear();  // so a reallocation has no old bytes to move
    heap_.resize(used);
    if (used != 0) std::memcpy(heap_.data(), data, used);
    base_ = 0;
    return used;
  }

  /// Rebuild by adopting `image` as the heap, with no copy: the records
  /// start `base` bytes in (after the node header) and occupy a prefix of
  /// the rest — the node store hands back full padded extents. The heap
  /// keeps the image's capacity, so later appends grow in place. Returns
  /// the number of record bytes.
  template <typename LenOf>
  size_t adopt_prefix(ByteBuffer&& image, size_t base, size_t entries,
                      size_t header_bytes, LenOf&& len_of) {
    DAMKIT_CHECK_MSG(base <= image.size(),
                     "short read: slotted records start past the image");
    const size_t used = index_prefix(image.data() + base, image.size() - base,
                                     base, entries, header_bytes, len_of);
    heap_ = std::move(image);
    heap_.resize(base + used);
    base_ = base;
    return used;
  }

  /// The walk under every parse: visit `entries` records at the front of
  /// [data, data + max_size) as on_record(offset, length), CHECKing that
  /// each header fits before `len_of` reads it and that each record fits.
  /// Returns the bytes the records occupy.
  template <typename LenOf, typename OnRecord>
  static size_t walk_prefix(const uint8_t* data, size_t max_size,
                            size_t entries, size_t header_bytes,
                            LenOf&& len_of, OnRecord&& on_record) {
    size_t off = 0;
    for (size_t i = 0; i < entries; ++i) {
      // An overstated entry count walks into padding (off <= max_size).
      DAMKIT_CHECK_MSG(max_size - off >= header_bytes,
                       "short read: slotted record header overruns the image");
      const size_t len = len_of(data + off);
      DAMKIT_CHECK_MSG(off + len <= max_size,
                       "short read: slotted record overruns the image");
      on_record(off, len);
      off += len;
    }
    return off;
  }

  /// Append the wire image to the byte vector `out`. One memcpy when the
  /// page is compact (fresh from a parse / append-only use); otherwise one
  /// record-copy pass in slot order — still no per-entry allocations.
  template <typename Bytes>
  void write_to(Bytes* out) const {
    if (live_bytes_ == 0) return;
    const size_t at = out->size();
    out->resize(at + live_bytes_);
    uint8_t* p = out->data() + at;
    if (compact_) {
      std::memcpy(p, heap_.data() + base_, live_bytes_);
      return;
    }
    for (const Slot& s : slots_) {
      std::memcpy(p, heap_.data() + s.off, s.len);
      p += s.len;
    }
  }

  /// Append a record (becomes the last slot).
  void append(std::string_view rec) {
    std::memcpy(alloc_tail(rec.size(), slots_.size()), rec.data(), rec.size());
  }

  /// Insert a record before position `pos`.
  void insert(size_t pos, std::string_view rec) {
    std::memcpy(insert_alloc(pos, rec.size()), rec.data(), rec.size());
  }

  /// Insert an uninitialized record of `len` bytes before `pos` and return
  /// a pointer for the caller to encode into (valid until next mutation).
  uint8_t* insert_alloc(size_t pos, size_t len) {
    uint8_t* p = alloc_tail(len, pos);
    return p;
  }

  /// Replace record `pos` with a fresh `len`-byte allocation.
  uint8_t* replace_alloc(size_t pos, size_t len) {
    const Slot old = slots_[pos];
    live_bytes_ -= old.len;
    note_len(len, slots_.size() == 1);
    // In-place when the record is the heap tail (common: repeated updates
    // of the same entry) — keeps the page compact.
    const bool at_tail = old.off + old.len == heap_.size();
    if (at_tail) {
      resize_heap(old.off + len);
      slots_[pos] = Slot{old.off, static_cast<uint32_t>(len)};
      live_bytes_ += len;
      return heap_.data() + old.off;
    }
    const size_t off = heap_.size();
    resize_heap(off + len);
    slots_[pos] =
        Slot{static_cast<uint32_t>(off), static_cast<uint32_t>(len)};
    live_bytes_ += len;
    compact_ = false;
    maybe_compact();
    return heap_.data() + slots_[pos].off;
  }

  void replace(size_t pos, std::string_view rec) {
    std::memcpy(replace_alloc(pos, rec.size()), rec.data(), rec.size());
  }

  /// Erase record `pos`.
  void erase(size_t pos) {
    const Slot old = slots_[pos];
    live_bytes_ -= old.len;
    slots_.erase(slots_.begin() + static_cast<ptrdiff_t>(pos));
    if (compact_ && old.off + old.len == heap_.size()) {
      heap_.resize(old.off);  // erasing the tail keeps the page compact
      return;
    }
    compact_ = false;
    maybe_compact();
  }

  /// Drop every record from `new_count` on (split "keep the left half").
  void truncate(size_t new_count) {
    if (new_count >= slots_.size()) return;
    if (compact_) {
      heap_.resize(slots_[new_count].off);
      slots_.resize(new_count);
      live_bytes_ = heap_.size() - base_;
      return;
    }
    for (size_t i = new_count; i < slots_.size(); ++i) {
      live_bytes_ -= slots_[i].len;
    }
    slots_.resize(new_count);
    maybe_compact();
  }

  /// Drop the first `n` records (split "keep the right half", borrows).
  void drop_front(size_t n) {
    if (n == 0) return;
    for (size_t i = 0; i < n; ++i) live_bytes_ -= slots_[i].len;
    slots_.erase(slots_.begin(), slots_.begin() + static_cast<ptrdiff_t>(n));
    compact_ = false;
    maybe_compact();
  }

  /// Branchless lower bound: first index whose key is >= `key`, where
  /// `key_of(record)` extracts the comparison key from a record view.
  ///
  /// The step update is a conditional move (no data-dependent branch to
  /// mispredict on random probes), and both of the *next* level's possible
  /// midpoints are prefetched before the current compare, so the serial
  /// load-compare chain runs at L1 latency instead of stalling a full
  /// cache miss per level.
  template <typename KeyOf>
  size_t lower_bound(std::string_view key, KeyOf&& key_of) const {
    if (compact_ && uniform_len_ != 0) {
      return bound_fixed<true>(key, key_of);
    }
    return bound_slots<true>(key, key_of);
  }

  /// Branchless upper bound: first index whose key is > `key`.
  template <typename KeyOf>
  size_t upper_bound(std::string_view key, KeyOf&& key_of) const {
    if (compact_ && uniform_len_ != 0) {
      return bound_fixed<false>(key, key_of);
    }
    return bound_slots<false>(key, key_of);
  }

  /// Record heap bytes currently held (live + garbage) — for tests/metrics.
  size_t heap_bytes() const { return heap_.size() - base_; }
  bool compact() const { return compact_; }

 private:
  struct Slot {
    uint32_t off;
    uint32_t len;
  };

  static void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p);
#else
    (void)p;
#endif
  }

  /// Branchless search over a compact page of same-length records: record
  /// offsets are *computed* (i * uniform_len_), so each level's probe
  /// address needs no slot load — one fewer serial memory dependency.
  /// This is the state every freshly deserialized fixed-width node is in.
  template <bool Lower, typename KeyOf>
  size_t bound_fixed(std::string_view key, KeyOf&& key_of) const {
    const char* heap = reinterpret_cast<const char*>(heap_.data()) + base_;
    const size_t stride = uniform_len_;
    const auto rec = [&](size_t i) {
      return std::string_view(heap + i * stride, stride);
    };
    size_t base = 0;
    size_t len = slots_.size();
    // Upper levels only: that's where the next probe is far away (likely
    // a different cache line) and the prefetch pays; near the bottom the
    // candidates share lines with data already touched.
    while (len > 64) {
      const size_t half = len / 2;
      const size_t next_half = (len - half) / 2;
      prefetch(heap + (base + next_half - 1) * stride);
      prefetch(heap + (base + half + next_half - 1) * stride);
      const int c = kv::compare(key_of(rec(base + half - 1)), key);
      base += static_cast<size_t>(Lower ? c < 0 : c <= 0) * half;
      len -= half;
    }
    while (len > 1) {
      const size_t half = len / 2;
      const int c = kv::compare(key_of(rec(base + half - 1)), key);
      base += static_cast<size_t>(Lower ? c < 0 : c <= 0) * half;
      len -= half;
    }
    if (slots_.empty()) return 0;
    const int c = kv::compare(key_of(rec(base)), key);
    return base + static_cast<size_t>(Lower ? c < 0 : c <= 0);
  }

  /// Branchless search through the slot array (mutated pages).
  template <bool Lower, typename KeyOf>
  size_t bound_slots(std::string_view key, KeyOf&& key_of) const {
    size_t base = 0;
    size_t len = slots_.size();
    while (len > 1) {
      const size_t half = len / 2;
      const size_t next_half = (len - half) / 2;
      if (next_half > 0) {
        prefetch(heap_.data() + slots_[base + next_half - 1].off);
        prefetch(heap_.data() + slots_[base + half + next_half - 1].off);
      }
      const int c = kv::compare(key_of(record(base + half - 1)), key);
      base += static_cast<size_t>(Lower ? c < 0 : c <= 0) * half;
      len -= half;
    }
    if (slots_.empty()) return 0;
    const int c = kv::compare(key_of(record(base)), key);
    return base + static_cast<size_t>(Lower ? c < 0 : c <= 0);
  }

  /// The walk of both parses: slot the `entries` records at the front of
  /// [data, data + max_size), which will sit at heap offset `base`.
  template <typename LenOf>
  size_t index_prefix(const uint8_t* data, size_t max_size, size_t base,
                      size_t entries, size_t header_bytes, LenOf&& len_of) {
    slots_.clear();
    slots_.reserve(entries);
    uniform_len_ = 0;
    const size_t used = walk_prefix(
        data, max_size, entries, header_bytes, len_of,
        [this, base](size_t off, size_t len) {
          slots_.push_back(Slot{static_cast<uint32_t>(base + off),
                                static_cast<uint32_t>(len)});
          note_len(len, slots_.size() == 1);
        });
    live_bytes_ = used;
    compact_ = true;
    return used;
  }

  /// Track whether every record shares one length (enables bound_fixed).
  /// 0 means "mixed / unknown" and is sticky until clear()/rebuild.
  void note_len(size_t len, bool first) {
    if (first) {
      uniform_len_ = static_cast<uint32_t>(len);
    } else if (uniform_len_ != len) {
      uniform_len_ = 0;
    }
  }

  uint8_t* alloc_tail(size_t len, size_t pos) {
    const bool first = slots_.empty();
    const size_t off = heap_.size();
    resize_heap(off + len);
    // Grow by one, then shift [pos, end) up: a vector::insert here inlines
    // a reallocation path that gcc 12 -O3 reports as a possible null
    // dereference (-Wnull-dereference).
    slots_.resize(slots_.size() + 1);
    std::move_backward(slots_.begin() + static_cast<ptrdiff_t>(pos),
                       slots_.end() - 1, slots_.end());
    slots_[pos] =
        Slot{static_cast<uint32_t>(off), static_cast<uint32_t>(len)};
    live_bytes_ += len;
    note_len(len, first);
    if (pos != slots_.size() - 1) compact_ = false;
    return heap_.data() + off;
  }

  /// Resize the heap to `bytes`, new bytes unwritten. Past its capacity it
  /// grows by doubling with one memcpy: a ByteBuffer's own reallocation
  /// moves its bytes one element at a time.
  void resize_heap(size_t bytes) {
    if (bytes > heap_.capacity()) {
      ByteBuffer grown;
      grown.reserve(std::max(bytes, 2 * heap_.capacity()));
      grown.resize(heap_.size());
      if (!heap_.empty()) {
        std::memcpy(grown.data(), heap_.data(), heap_.size());
      }
      heap_.swap(grown);
    }
    heap_.resize(bytes);
  }

  void maybe_compact() {
    if (heap_.size() - base_ > 2 * live_bytes_ + 4096) compact_now();
  }

  void compact_now() {
    ByteBuffer fresh(live_bytes_);
    uint32_t off = 0;
    for (Slot& s : slots_) {
      std::memcpy(fresh.data() + off, heap_.data() + s.off, s.len);
      s.off = off;
      off += s.len;
    }
    heap_ = std::move(fresh);
    base_ = 0;
    compact_ = true;
  }

  ByteBuffer heap_;
  std::vector<Slot> slots_;
  /// Heap offset of the first record: the node header an adopted image
  /// keeps in front of them (0 unless adopted).
  size_t base_ = 0;
  size_t live_bytes_ = 0;
  bool compact_ = true;
  /// Common record length when all records share one, else 0 (sticky).
  uint32_t uniform_len_ = 0;
};

}  // namespace damkit::node
