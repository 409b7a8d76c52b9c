// The LSM write path allocates per arena block and per table block, not
// per entry: a memtable refilled after clear() takes every key, value and
// index node from the arena blocks it kept, so it makes no allocation, and
// an SSTableBuilder keeps each key's Bloom hash pair, not a copy of the
// key, so its allocations follow the block count (one index key each) and
// its buffers' regrowth. This binary replaces the global operator new to
// count allocations, and counts only between start_counting and
// stop_counting.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "kv/slice.h"
#include "lsm/memtable.h"
#include "lsm/sstable.h"
#include "sim/hdd.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace {

bool g_counting = false;
size_t g_allocations = 0;

}  // namespace

// Not inlined, so callers see new paired with delete, never malloc or
// free (which GCC would report as a mismatched pair).
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  if (g_counting) ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace damkit::lsm {
namespace {

void start_counting() {
  g_allocations = 0;
  g_counting = true;
}

size_t stop_counting() {
  g_counting = false;
  return g_allocations;
}

struct KeyValue {
  std::string key;
  std::string value;
};

// `n` entries of 16 B keys and 100 B values in seeded random order.
std::vector<KeyValue> shuffled_entries(uint64_t n, uint64_t seed) {
  std::vector<KeyValue> entries(n);
  for (uint64_t i = 0; i < n; ++i) {
    entries[i] = {kv::encode_key(i, 16), kv::make_value(i, 100)};
  }
  Rng rng(seed);
  for (uint64_t i = n; i > 1; --i) {
    std::swap(entries[i - 1], entries[rng.uniform(i)]);
  }
  return entries;
}

TEST(WritePathAllocTest, RefillingAClearedMemTableAllocatesNothing) {
  MemTable table;
  for (const KeyValue& e : shuffled_entries(8192, 1)) {
    table.put(e.key, e.value);
  }
  table.clear();
  const std::vector<KeyValue> refill = shuffled_entries(8192, 2);
  start_counting();
  for (const KeyValue& e : refill) table.put(e.key, e.value);
  EXPECT_EQ(stop_counting(), 0u);
  EXPECT_EQ(table.entry_count(), 8192u);
}

TEST(WritePathAllocTest, TableBuilderAllocatesPerBlockNotPerKey) {
  sim::HddConfig cfg;
  cfg.capacity_bytes = 1ULL * kGiB;
  sim::HddDevice dev(cfg);
  sim::IoContext io(dev);
  blockdev::ByteArena arena(dev, 0);
  constexpr uint64_t kEntries = 20'000;
  std::vector<KeyValue> entries(kEntries);
  for (uint64_t i = 0; i < kEntries; ++i) {
    entries[i] = {kv::encode_key(i, 16), kv::make_value(i, 100)};
  }
  SSTableBuilder builder(dev, io, arena, /*block_bytes=*/4096, 1);
  start_counting();
  for (const KeyValue& e : entries) {
    builder.add(EntryView{e.key, e.value, false});
  }
  // About 590 blocks of 34 entries, each with a heap-held first key.
  EXPECT_LT(stop_counting(), 2'500u);
  StatusOr<SSTableRef> table = builder.try_finish();
  ASSERT_TRUE(table.ok()) << table.status().to_string();
  EXPECT_EQ((*table)->entry_count(), kEntries);
}

}  // namespace
}  // namespace damkit::lsm
