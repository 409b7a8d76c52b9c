// A page parse is one bulk copy plus one walk over the record headers, so
// parsing an image of any record count into an empty page allocates at
// most twice: the record heap and the slot array. A parse that copied each
// record into its own allocation would fail here for every count above
// two. An adopting parse takes the image as its heap, so it allocates at
// most the slot array, and a NodeCache miss allocates one image-sized
// buffer (the one the device fills and the node adopts), not a second
// copy. write_to must append the parsed image byte for byte. This binary
// replaces the global operator new to count allocations, and counts only
// between start_counting and stop_counting.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>
#include <vector>

#include "blockdev/codec.h"
#include "btree/btree_node.h"
#include "cache/node_cache.h"
#include "kv/slice.h"
#include "node/sorted_page.h"
#include "sim/profiles.h"
#include "sim/ssd.h"
#include "util/bytes.h"

namespace {

bool g_counting = false;
size_t g_allocations = 0;
// Allocations of at least g_large_bytes are also counted here.
size_t g_large_bytes = SIZE_MAX;
size_t g_large_allocations = 0;

void count(std::size_t size) {
  if (!g_counting) return;
  ++g_allocations;
  if (size >= g_large_bytes) ++g_large_allocations;
}

}  // namespace

// Not inlined, so callers see new paired with delete, never malloc or
// free (which GCC would report as a mismatched pair).
[[gnu::noinline]] void* operator new(std::size_t size) {
  count(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  count(size);
  return std::malloc(size == 0 ? 1 : size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace damkit::node {
namespace {

void start_counting(size_t large_bytes = SIZE_MAX) {
  g_allocations = 0;
  g_large_allocations = 0;
  g_large_bytes = large_bytes;
  g_counting = true;
}

size_t stop_counting() {
  g_counting = false;
  return g_allocations;
}

constexpr size_t kCounts[] = {0, 1, 2, 3, 64, 1000, 4096};

// Parses the `n`-record `image` into a fresh page, exactly and from a
// padded extent, checking each parse's allocations and the image it writes.
template <typename Page>
void expect_parse_allocates_twice(const std::vector<uint8_t>& image,
                                  size_t n) {
  Page page;
  start_counting();
  page.parse(image.data(), image.size(), n);
  EXPECT_LE(stop_counting(), 2u) << "parse of " << n << " records";
  ASSERT_EQ(page.count(), n);
  std::vector<uint8_t> out;
  page.write_to(&out);
  EXPECT_EQ(out, image);

  std::vector<uint8_t> padded = image;
  padded.resize(image.size() + 4096, 0);
  Page prefix;
  start_counting();
  const size_t used = prefix.parse_prefix(padded.data(), padded.size(), n);
  EXPECT_LE(stop_counting(), 2u) << "parse_prefix of " << n << " records";
  EXPECT_EQ(used, image.size());
  out.clear();
  prefix.write_to(&out);
  EXPECT_EQ(out, image);
}

TEST(PageParseAllocTest, KvPageParseAllocatesAtMostTwice) {
  for (const size_t n : kCounts) {
    KvPage built;
    for (size_t i = 0; i < n; ++i) {
      built.append(kv::encode_key(i, 16), kv::make_value(i, 100));
    }
    std::vector<uint8_t> image;
    built.write_to(&image);
    expect_parse_allocates_twice<KvPage>(image, n);
  }
}

TEST(PageParseAllocTest, PivotPageParseAllocatesAtMostTwice) {
  for (const size_t n : kCounts) {
    PivotPage built;
    for (size_t i = 0; i < n; ++i) built.append(kv::encode_key(i, 16));
    std::vector<uint8_t> image;
    built.write_to(&image);
    expect_parse_allocates_twice<PivotPage>(image, n);
  }
}

// Adopts the `n`-record `image`, placed `base` bytes into a padded extent,
// into a fresh page: at most the slot array is allocated.
void expect_adopt_allocates_once(const std::vector<uint8_t>& image, size_t n,
                                 size_t base) {
  ByteBuffer extent(base + image.size() + 4096, 0);
  if (!image.empty()) {
    std::memcpy(extent.data() + base, image.data(), image.size());
  }
  KvPage page;
  start_counting();
  const size_t used = page.adopt_prefix(std::move(extent), base, n);
  EXPECT_LE(stop_counting(), 1u) << "adopt_prefix of " << n << " records";
  EXPECT_EQ(used, image.size());
  ASSERT_EQ(page.count(), n);
  std::vector<uint8_t> out;
  page.write_to(&out);
  EXPECT_EQ(out, image);
}

TEST(PageParseAllocTest, AdoptingParseAllocatesAtMostTheSlots) {
  for (const size_t n : kCounts) {
    KvPage built;
    for (size_t i = 0; i < n; ++i) {
      built.append(kv::encode_key(i, 16), kv::make_value(i, 100));
    }
    std::vector<uint8_t> image;
    built.write_to(&image);
    for (const size_t base : {0, 17}) {
      expect_adopt_allocates_once(image, n, base);
    }
  }
}

// A miss of a 16 KiB B-tree leaf at bulk fill, evicting the one clean node
// a one-node cache holds, allocates exactly one buffer at least as large as
// the leaf's image: the read buffer the parsed leaf adopts.
TEST(PageParseAllocTest, NodeCacheMissAllocatesOneImageSizedBuffer) {
  constexpr uint64_t kNodeBytes = 16 * kKiB;
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  cache::NodeCache<btree::BTreeNode> cache(dev, io, kNodeBytes, kNodeBytes, 0,
                                           blockdev::CodecKind::kIdentity);
  uint64_t ids[2];
  uint64_t image_bytes = 0;
  for (uint64_t& id : ids) {
    auto leaf = btree::BTreeNode::make_leaf();
    for (uint64_t i = 0; leaf->byte_size() + 122 <= kNodeBytes * 85 / 100;
         ++i) {
      leaf->leaf_append(kv::encode_key(i, 16), kv::make_value(i, 100));
    }
    image_bytes = leaf->byte_size();
    id = cache.store().allocate();
    ASSERT_TRUE(cache.write_through(id, *leaf).ok());
  }
  ASSERT_TRUE(cache.fetch(ids[0]).ok());  // resident, clean: the victim

  start_counting(image_bytes);
  const bool fetched = cache.fetch(ids[1]).ok();
  stop_counting();
  ASSERT_TRUE(fetched);
  EXPECT_EQ(g_large_allocations, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().dirty_writebacks, 0u);
}

// The counter sees every allocation between start and stop.
TEST(PageParseAllocTest, CounterSeesEveryAllocation) {
  std::vector<std::vector<uint8_t>> copies;
  copies.reserve(64);
  start_counting();
  for (int i = 0; i < 64; ++i) copies.emplace_back(16, 0);
  EXPECT_EQ(stop_counting(), 64u);
}

}  // namespace
}  // namespace damkit::node
