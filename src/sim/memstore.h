// Sparse byte store backing simulated devices. Only pages that have been
// written occupy host memory, so a "500 GiB" simulated disk costs only as
// much RAM as the experiment's live data set.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>

namespace damkit::sim {

class MemStore {
 public:
  explicit MemStore(uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

  uint64_t capacity() const { return capacity_; }

  /// Bytes never written read back as zero.
  void read(uint64_t offset, std::span<uint8_t> out) const;
  void write(uint64_t offset, std::span<const uint8_t> data);

  /// Host memory currently pinned by written pages.
  uint64_t resident_bytes() const { return pages_.size() * kPageBytes; }

  /// TRIM/deallocate: [offset, offset+length) reads back as zero. Pages
  /// the range covers, and partly covered pages left all zero, release
  /// their host memory.
  void discard(uint64_t offset, uint64_t length);

  void clear() { pages_.clear(); }

 private:
  static constexpr uint64_t kPageBytes = 64 * 1024;

  uint64_t capacity_;
  std::unordered_map<uint64_t, std::unique_ptr<uint8_t[]>> pages_;
};

}  // namespace damkit::sim
