// In-memory write buffer of the LSM-tree: a sorted map of the freshest
// version of each recently-written key (tombstones included).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "lsm/sstable.h"

namespace damkit::lsm {

class MemTable {
 public:
  void put(std::string_view key, std::string_view value) {
    upsert_entry(key, value, /*tombstone=*/false);
  }
  void erase(std::string_view key) { upsert_entry(key, "", true); }

  /// nullopt = unknown here (consult tables); tombstone=true =
  /// known-deleted. Borrows from the table until its next change.
  std::optional<EntryView> get(std::string_view key) const {
    const auto it = entries_.find(key);  // transparent comparator: no copy
    if (it == entries_.end()) return std::nullopt;
    return EntryView{it->first, it->second.value, it->second.tombstone};
  }

  uint64_t approximate_bytes() const { return bytes_; }
  size_t entry_count() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() {
    entries_.clear();
    bytes_ = 0;
  }

  /// Ordered traversal support for flush and merged scans.
  struct Slot {
    std::string value;
    bool tombstone = false;
  };
  using Map = std::map<std::string, Slot, std::less<>>;
  const Map& entries() const { return entries_; }

 private:
  void upsert_entry(std::string_view key, std::string_view value,
                    bool tombstone) {
    auto [it, inserted] = entries_.try_emplace(std::string(key));
    if (inserted) {
      bytes_ += key.size() + 16;
    } else {
      bytes_ -= it->second.value.size();
    }
    it->second.value.assign(value);
    it->second.tombstone = tombstone;
    bytes_ += value.size();
  }

  Map entries_;
  uint64_t bytes_ = 0;
};

}  // namespace damkit::lsm
