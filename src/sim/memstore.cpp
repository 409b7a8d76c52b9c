#include "sim/memstore.h"

#include <algorithm>
#include <cstring>

#include "util/status.h"

namespace damkit::sim {

void MemStore::read(uint64_t offset, std::span<uint8_t> out) const {
  DAMKIT_CHECK_MSG(offset + out.size() <= capacity_,
                   "read past capacity: " << offset << "+" << out.size());
  uint64_t pos = offset;
  uint8_t* dst = out.data();
  uint64_t remaining = out.size();
  while (remaining > 0) {
    const uint64_t page = pos / kPageBytes;
    const uint64_t in_page = pos % kPageBytes;
    const uint64_t chunk = std::min(remaining, kPageBytes - in_page);
    const auto it = pages_.find(page);
    if (it == pages_.end()) {
      std::memset(dst, 0, chunk);
    } else {
      std::memcpy(dst, it->second.get() + in_page, chunk);
    }
    pos += chunk;
    dst += chunk;
    remaining -= chunk;
  }
}

void MemStore::write(uint64_t offset, std::span<const uint8_t> data) {
  DAMKIT_CHECK_MSG(offset + data.size() <= capacity_,
                   "write past capacity: " << offset << "+" << data.size());
  uint64_t pos = offset;
  const uint8_t* src = data.data();
  uint64_t remaining = data.size();
  while (remaining > 0) {
    const uint64_t page = pos / kPageBytes;
    const uint64_t in_page = pos % kPageBytes;
    const uint64_t chunk = std::min(remaining, kPageBytes - in_page);
    auto& slot = pages_[page];
    if (!slot) {
      slot = std::make_unique<uint8_t[]>(kPageBytes);
      std::memset(slot.get(), 0, kPageBytes);
    }
    std::memcpy(slot.get() + in_page, src, chunk);
    pos += chunk;
    src += chunk;
    remaining -= chunk;
  }
}

void MemStore::discard(uint64_t offset, uint64_t length) {
  DAMKIT_CHECK(offset + length <= capacity_);
  const uint64_t end = offset + length;
  for (uint64_t pos = offset; pos < end;) {
    const uint64_t page = pos / kPageBytes;
    const uint64_t in_page = pos % kPageBytes;
    const uint64_t chunk = std::min(end - pos, kPageBytes - in_page);
    pos += chunk;
    const auto it = pages_.find(page);
    if (it == pages_.end()) continue;
    uint8_t* bytes = it->second.get();
    if (chunk < kPageBytes) {
      // A partly covered page keeps its other bytes, so it is dropped only
      // once every byte reads as zero (its neighbours trimmed too).
      std::memset(bytes + in_page, 0, chunk);
      if (bytes[0] != 0 || std::memcmp(bytes, bytes + 1, kPageBytes - 1) != 0) {
        continue;
      }
    }
    pages_.erase(it);
  }
}

}  // namespace damkit::sim
