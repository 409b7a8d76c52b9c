#include "blockdev/byte_arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/hdd.h"
#include "util/bytes.h"

namespace damkit::blockdev {
namespace {

TEST(ByteArenaTest, AllocatesAlignedDisjointRanges) {
  sim::HddConfig cfg;
  cfg.capacity_bytes = 1ULL * kGiB;
  sim::HddDevice dev(cfg);
  ByteArena arena(dev, 4096);
  const uint64_t a = arena.allocate(100);
  const uint64_t b = arena.allocate(5000);
  const uint64_t c = arena.allocate(1);
  EXPECT_EQ(a % 4096, 0u);
  EXPECT_EQ(b % 4096, 0u);
  EXPECT_GE(b, a + 100);
  EXPECT_GE(c, b + 5000);
  EXPECT_EQ(arena.live_bytes(), 5101u);
}

TEST(ByteArenaTest, FreeTrimsAndAccounts) {
  sim::HddConfig cfg;
  cfg.capacity_bytes = 1ULL * kGiB;
  sim::HddDevice dev(cfg);
  ByteArena arena(dev, 0);
  const uint64_t off = arena.allocate(256 * 1024);
  std::vector<uint8_t> data(256 * 1024, 0xab);
  dev.write_bytes(off, data);
  EXPECT_GT(dev.resident_host_bytes(), 0u);
  arena.free(off, 256 * 1024);
  EXPECT_EQ(arena.live_bytes(), 0u);
  EXPECT_EQ(arena.freed_bytes(), 256u * 1024);
  // Trimmed range reads back as zero.
  std::vector<uint8_t> back(1024);
  dev.read_bytes(off, back);
  for (uint8_t v : back) EXPECT_EQ(v, 0);
}

// Neighbouring tables share device pages at 4 KiB alignment: freeing
// every table must release every page, not only those one table covers.
TEST(ByteArenaTest, FreeingAdjacentRangesReleasesSharedPages) {
  sim::HddConfig cfg;
  cfg.capacity_bytes = 1ULL * kGiB;
  sim::HddDevice dev(cfg);
  ByteArena arena(dev, 4096);
  constexpr uint64_t kRange = 20 * 1024;
  std::vector<uint64_t> offsets;
  for (int i = 0; i < 32; ++i) {
    offsets.push_back(arena.allocate(kRange));
    dev.write_bytes(offsets.back(), std::vector<uint8_t>(kRange, 0xcd));
  }
  EXPECT_GT(dev.resident_host_bytes(), 0u);
  for (const uint64_t off : offsets) arena.free(off, kRange);
  EXPECT_EQ(dev.resident_host_bytes(), 0u);
}

TEST(ByteArenaDeathTest, ExhaustionAborts) {
  sim::HddConfig cfg;
  cfg.capacity_bytes = 16 * kMiB;
  sim::HddDevice dev(cfg);
  ByteArena arena(dev, 0);
  arena.allocate(15 * kMiB);
  EXPECT_DEATH(arena.allocate(2 * kMiB), "exhausted");
}

}  // namespace
}  // namespace damkit::blockdev
