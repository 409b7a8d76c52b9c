// A page parse is one bulk copy plus one walk over the record headers, so
// parsing an image of any record count into an empty page allocates at
// most twice: the record heap and the slot array. A parse that copied each
// record into its own allocation would fail here for every count above
// two. write_to must append the parsed image byte for byte. This binary
// replaces the global operator new to count allocations, and counts only
// between start_counting and stop_counting.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "kv/slice.h"
#include "node/sorted_page.h"

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

namespace damkit::node {
namespace {

void start_counting() {
  g_allocations = 0;
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
