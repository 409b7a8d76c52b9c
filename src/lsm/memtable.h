// In-memory write buffer of the LSM-tree: a sorted map of the freshest
// version of each recently-written key (tombstones included).
//
// The table copies each new key and its value once, side by side, into an
// arena it owns, and the sorted index (a std::pmr::map of key views) takes
// its nodes from the same arena, so an entry's bytes sit next to its node.
// A put whose value fits its slot's capacity overwrites the bytes in place;
// a longer value moves to a new arena slot, and the old bytes stay dead
// until clear(). clear() rewinds the arena without freeing its blocks, so
// after the first fill a steady fill-flush cycle makes no heap allocation.
// The index points into the arena: a MemTable is neither copyable nor
// movable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <memory_resource>
#include <optional>
#include <string_view>
#include <vector>

#include "kv/slice.h"
#include "lsm/sstable.h"
#include "util/status.h"

namespace damkit::lsm {

class MemTable {
 public:
  MemTable() = default;
  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  void put(std::string_view key, std::string_view value) {
    upsert_entry(key, value, /*tombstone=*/false);
  }
  void erase(std::string_view key) { upsert_entry(key, "", true); }

  /// nullopt = unknown here (consult tables); tombstone=true =
  /// known-deleted. Borrows from the table until its next change.
  std::optional<EntryView> get(std::string_view key) const {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    return EntryView{it->first, it->second.value, it->second.tombstone};
  }

  /// The flush trigger: key.size() + 16 per key plus its live value bytes
  /// (arena layout and dead bytes do not count).
  uint64_t approximate_bytes() const { return bytes_; }
  size_t entry_count() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  /// Drop every entry and rewind the arena, keeping its blocks.
  void clear() {
    entries_.clear();
    arena_.rewind();
    bytes_ = 0;
  }

  /// Ordered traversal support for flush and merged scans.
  struct Slot {
    std::string_view value;  // arena bytes
    size_t capacity = 0;     // arena bytes reserved at value.data()
    bool tombstone = false;
  };
  /// Byte order through kv::compare, which inlines word-wise: no memcmp
  /// call per node the index search visits.
  struct KeyLess {
    bool operator()(std::string_view a, std::string_view b) const {
      return kv::compare(a, b) < 0;
    }
  };
  using Map = std::pmr::map<std::string_view, Slot, KeyLess>;
  const Map& entries() const { return entries_; }

 private:
  /// Bump allocation from blocks kept until destruction; deallocate is a
  /// no-op and rewind() makes every block reusable. A request above a
  /// quarter block gets an allocation of its own, freed by rewind().
  class Arena final : public std::pmr::memory_resource {
   public:
    /// `bytes` at `align` (a power of two no larger than max_align_t's),
    /// valid until rewind().
    char* take(size_t bytes, size_t align) {
      if (bytes > kBlockBytes / 4) {
        large_.push_back(std::make_unique_for_overwrite<char[]>(bytes));
        return large_.back().get();
      }
      size_t at = (used_ + align - 1) & ~(align - 1);
      if (block_ == nullptr || at + bytes > kBlockBytes) {
        if (next_ == blocks_.size()) {
          blocks_.push_back(
              std::make_unique_for_overwrite<char[]>(kBlockBytes));
        }
        block_ = blocks_[next_++].get();
        at = 0;
      }
      used_ = at + bytes;
      return block_ + at;
    }
    void rewind() {
      next_ = 0;
      block_ = nullptr;
      used_ = 0;
      large_.clear();
    }

   private:
    static constexpr size_t kBlockBytes = 64 * 1024;

    void* do_allocate(size_t bytes, size_t align) override {
      DAMKIT_CHECK(align <= alignof(std::max_align_t));
      return take(bytes, align);
    }
    void do_deallocate(void*, size_t, size_t) override {}
    bool do_is_equal(
        const std::pmr::memory_resource& other) const noexcept override {
      return this == &other;
    }

    std::vector<std::unique_ptr<char[]>> blocks_;
    size_t next_ = 0;        // blocks_[next_] is the next block to open
    char* block_ = nullptr;  // the open block, if any
    size_t used_ = 0;        // bytes taken from block_
    std::vector<std::unique_ptr<char[]>> large_;
  };

  static void copy_into(char* dst, std::string_view src) {
    if (!src.empty()) std::memcpy(dst, src.data(), src.size());
  }

  void upsert_entry(std::string_view key, std::string_view value,
                    bool tombstone) {
    auto it = entries_.lower_bound(key);
    if (it == entries_.end() || kv::compare(it->first, key) != 0) {
      char* bytes = arena_.take(key.size() + value.size(), 1);
      copy_into(bytes, key);
      copy_into(bytes + key.size(), value);
      const Slot slot{std::string_view(bytes + key.size(), value.size()),
                      value.size(), tombstone};
      entries_.emplace_hint(it, std::string_view(bytes, key.size()), slot);
      bytes_ += key.size() + 16 + value.size();
      return;
    }
    Slot& slot = it->second;
    // The view is const for readers; the arena bytes behind it are ours.
    char* dst = const_cast<char*>(slot.value.data());
    if (value.size() > slot.capacity) {
      dst = arena_.take(value.size(), 1);
      slot.capacity = value.size();
    }
    copy_into(dst, value);
    bytes_ = bytes_ - slot.value.size() + value.size();
    slot.value = std::string_view(dst, value.size());
    slot.tombstone = tombstone;
  }

  Arena arena_;  // before entries_, whose nodes live in it
  Map entries_{&arena_};
  uint64_t bytes_ = 0;
};

}  // namespace damkit::lsm
