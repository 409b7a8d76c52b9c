#include "sim/memstore.h"

#include <gtest/gtest.h>

#include <vector>

namespace damkit::sim {
namespace {

std::vector<uint8_t> pattern(size_t n, uint8_t seed) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<uint8_t>(seed + i * 7);
  return v;
}

TEST(MemStoreTest, UnwrittenReadsAsZero) {
  MemStore store(1 << 20);
  std::vector<uint8_t> buf(4096, 0xff);
  store.read(12345, buf);
  for (uint8_t b : buf) EXPECT_EQ(b, 0);
}

TEST(MemStoreTest, WriteReadRoundTrip) {
  MemStore store(1 << 20);
  const auto data = pattern(1000, 3);
  store.write(500, data);
  std::vector<uint8_t> buf(1000);
  store.read(500, buf);
  EXPECT_EQ(buf, data);
}

TEST(MemStoreTest, CrossPageBoundary) {
  MemStore store(1 << 22);
  // 64 KiB internal pages: straddle one boundary.
  const uint64_t off = 64 * 1024 - 100;
  const auto data = pattern(300, 9);
  store.write(off, data);
  std::vector<uint8_t> buf(300);
  store.read(off, buf);
  EXPECT_EQ(buf, data);
}

TEST(MemStoreTest, OverwritePartial) {
  MemStore store(1 << 20);
  store.write(0, pattern(100, 1));
  store.write(50, pattern(10, 200));
  std::vector<uint8_t> buf(100);
  store.read(0, buf);
  const auto first = pattern(100, 1);
  const auto mid = pattern(10, 200);
  for (size_t i = 0; i < 50; ++i) EXPECT_EQ(buf[i], first[i]);
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(buf[50 + i], mid[i]);
  for (size_t i = 60; i < 100; ++i) EXPECT_EQ(buf[i], first[i]);
}

TEST(MemStoreTest, SparseResidency) {
  MemStore store(1ULL << 40);  // 1 TiB nominal
  EXPECT_EQ(store.resident_bytes(), 0u);
  store.write(1ULL << 39, pattern(10, 5));
  EXPECT_EQ(store.resident_bytes(), 64u * 1024);  // one page
  store.write(0, pattern(10, 5));
  EXPECT_EQ(store.resident_bytes(), 2u * 64 * 1024);
}

TEST(MemStoreTest, ClearDropsData) {
  MemStore store(1 << 20);
  store.write(0, pattern(10, 1));
  store.clear();
  EXPECT_EQ(store.resident_bytes(), 0u);
  std::vector<uint8_t> buf(10, 0xff);
  store.read(0, buf);
  for (uint8_t b : buf) EXPECT_EQ(b, 0);
}

TEST(MemStoreTest, PartialDiscardZeroesExactlyItsBytes) {
  constexpr uint64_t kPage = 64 * 1024;
  MemStore store(1 << 22);
  const auto data = pattern(2 * kPage, 11);
  store.write(0, data);
  // Straddles the page boundary, covering neither page whole.
  const uint64_t lo = kPage - 1000;
  const uint64_t hi = kPage + 3000;
  store.discard(lo, hi - lo);
  std::vector<uint8_t> back(2 * kPage);
  store.read(0, back);
  for (uint64_t i = 0; i < back.size(); ++i) {
    ASSERT_EQ(back[i], i >= lo && i < hi ? 0 : data[i]) << "byte " << i;
  }
  EXPECT_EQ(store.resident_bytes(), 2 * kPage);

  // Trimming the rest of the first page leaves it all zero: it is dropped.
  store.discard(0, lo);
  EXPECT_EQ(store.resident_bytes(), kPage);
  store.discard(hi, 2 * kPage - hi);
  EXPECT_EQ(store.resident_bytes(), 0u);
  store.read(0, back);
  for (uint8_t b : back) ASSERT_EQ(b, 0);
}

TEST(MemStoreDeathTest, OutOfBoundsRejected) {
  MemStore store(1024);
  std::vector<uint8_t> buf(100);
  EXPECT_DEATH(store.read(1000, buf), "past capacity");
  EXPECT_DEATH(store.write(1000, buf), "past capacity");
}

}  // namespace
}  // namespace damkit::sim
