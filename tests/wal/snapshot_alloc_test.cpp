// A snapshot write moves the payload to the device straight from the
// caller's buffer: only the chunk holding the payload's end is copied, to
// zero-pad it. A write that copied the whole payload would fail here. This
// binary replaces the global operator new to record the largest single
// allocation between start_tracking and stop_tracking.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "sim/profiles.h"
#include "sim/ssd.h"
#include "util/bytes.h"
#include "wal/snapshot.h"

namespace {

bool g_tracking = false;
size_t g_largest = 0;

}  // namespace

// Not inlined, so callers see new paired with delete, never malloc or
// free (which GCC would report as a mismatched pair).
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_tracking) g_largest = std::max(g_largest, size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  if (g_tracking) g_largest = std::max(g_largest, size);
  return std::malloc(size == 0 ? 1 : size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace damkit::wal {
namespace {

void start_tracking() {
  g_largest = 0;
  g_tracking = true;
}

size_t stop_tracking() {
  g_tracking = false;
  return g_largest;
}

TEST(SnapshotAllocTest, WriteDoesNotCopyThePayload) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  SnapshotConfig cfg;
  cfg.slot_bytes = 4 * kMiB;
  SnapshotStore store(dev, io, cfg);
  // Sizes around the 256 KiB transfer chunk and the 4 KiB block.
  const size_t sizes[] = {0, 4096, 256 * 1024, 256 * 1024 + 1, 1 * kMiB + 123};
  uint64_t seq = 0;
  for (const size_t bytes : sizes) {
    std::vector<uint8_t> payload(bytes);
    for (size_t i = 0; i < bytes; ++i) {
      payload[i] = static_cast<uint8_t>(i * 7 + bytes);
    }
    SnapshotMeta meta;
    meta.seq = ++seq;
    meta.payload_bytes = bytes;
    start_tracking();
    const Status s = store.write(meta, payload);
    const size_t largest = stop_tracking();
    ASSERT_TRUE(s.ok()) << s.to_string();
    if (bytes >= 1 * kMiB) {
      EXPECT_LT(largest, bytes) << bytes << "-byte payload";
    }

    SnapshotMeta back_meta;
    std::vector<uint8_t> back;
    StatusOr<bool> loaded = store.load(&back_meta, &back);
    ASSERT_TRUE(loaded.ok() && *loaded) << bytes << "-byte payload";
    EXPECT_EQ(back_meta.seq, seq);
    EXPECT_EQ(back, payload) << bytes << "-byte payload";
  }
}

}  // namespace
}  // namespace damkit::wal
