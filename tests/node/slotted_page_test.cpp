// SlottedPage unit + fuzz coverage: wire round-trips, mutation sequences
// against a vector<string> reference model, boundary sizes, and the
// prefix-compare edge cases the branchless search must get right.
#include "node/slotted_page.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "kv/slice.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace damkit::node {
namespace {

// Test records are [u8 len][bytes] (a 1-byte header) so len_of is trivial.
constexpr size_t kHeader = 1;

std::string rec_of(std::string_view key) {
  std::string r;
  r.push_back(static_cast<char>(key.size()));
  r.append(key);
  return r;
}

std::string_view key_of(std::string_view rec) {
  return rec.substr(1, static_cast<uint8_t>(rec[0]));
}

size_t len_of(const uint8_t* p) { return size_t{1} + *p; }

std::vector<uint8_t> image_of(const std::vector<std::string>& keys) {
  std::vector<uint8_t> image;
  for (const std::string& k : keys) {
    const std::string r = rec_of(k);
    image.insert(image.end(), r.begin(), r.end());
  }
  return image;
}

TEST(SlottedPageTest, EmptyPage) {
  SlottedPage page;
  EXPECT_EQ(page.count(), 0u);
  EXPECT_EQ(page.live_bytes(), 0u);
  EXPECT_EQ(page.lower_bound("a", key_of), 0u);
  EXPECT_EQ(page.upper_bound("a", key_of), 0u);
  std::vector<uint8_t> out;
  page.write_to(&out);
  EXPECT_TRUE(out.empty());
}

TEST(SlottedPageDeathTest, HeaderStraddlingTheImageEndIsRejected) {
  // [u16 len][bytes] records: one real record plus one padding byte, under
  // an entry count of two. The phantom record's 2-byte header would
  // straddle the end of the exactly-sized image; it must not be read.
  const std::vector<uint8_t> image = {1, 0, 'a', 0};
  const auto len16_of = [](const uint8_t* p) {
    return size_t{2} + load_u16(p);
  };
  SlottedPage page;
  EXPECT_DEATH(page.build_from_prefix(image.data(), image.size(), 2,
                                      /*header_bytes=*/2, len16_of),
               "record header overruns");
}

TEST(SlottedPageTest, BuildFromImageRoundTrips) {
  const std::vector<std::string> keys = {"alpha", "beta", "delta", "zeta"};
  const std::vector<uint8_t> image = image_of(keys);
  SlottedPage page;
  page.build_from_image(image.data(), image.size(), keys.size(), kHeader,
                        len_of);
  ASSERT_EQ(page.count(), keys.size());
  EXPECT_TRUE(page.compact());
  EXPECT_EQ(page.live_bytes(), image.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(key_of(page.record(i)), keys[i]);
  }
  std::vector<uint8_t> out;
  page.write_to(&out);
  EXPECT_EQ(out, image);
}

TEST(SlottedPageTest, InsertEraseReplaceStayConsistent) {
  SlottedPage page;
  page.append(rec_of("bb"));
  page.append(rec_of("dd"));
  page.insert(0, rec_of("aa"));     // front insert breaks compactness
  page.insert(2, rec_of("cc"));     // middle insert
  ASSERT_EQ(page.count(), 4u);
  EXPECT_EQ(key_of(page.record(0)), "aa");
  EXPECT_EQ(key_of(page.record(1)), "bb");
  EXPECT_EQ(key_of(page.record(2)), "cc");
  EXPECT_EQ(key_of(page.record(3)), "dd");

  page.replace(1, rec_of("bbbb"));
  EXPECT_EQ(key_of(page.record(1)), "bbbb");
  page.erase(2);
  ASSERT_EQ(page.count(), 3u);
  EXPECT_EQ(key_of(page.record(2)), "dd");

  // Serialize reflects slot order, not heap order.
  std::vector<uint8_t> out;
  page.write_to(&out);
  EXPECT_EQ(out, image_of({"aa", "bbbb", "dd"}));
  EXPECT_EQ(page.live_bytes(), out.size());
}

TEST(SlottedPageTest, TruncateAndDropFront) {
  const std::vector<std::string> keys = {"a", "b", "c", "d", "e"};
  const std::vector<uint8_t> image = image_of(keys);
  SlottedPage left;
  left.build_from_image(image.data(), image.size(), keys.size(), kHeader,
                        len_of);
  left.truncate(2);
  EXPECT_TRUE(left.compact());  // compact truncation is a pure resize
  std::vector<uint8_t> out;
  left.write_to(&out);
  EXPECT_EQ(out, image_of({"a", "b"}));

  SlottedPage right;
  right.build_from_image(image.data(), image.size(), keys.size(), kHeader,
                        len_of);
  right.drop_front(2);
  out.clear();
  right.write_to(&out);
  EXPECT_EQ(out, image_of({"c", "d", "e"}));
}

TEST(SlottedPageTest, InsertAllocEncodesInPlace) {
  SlottedPage page;
  const std::string rec = rec_of("hello");
  uint8_t* p = page.insert_alloc(0, rec.size());
  std::memcpy(p, rec.data(), rec.size());
  EXPECT_EQ(key_of(page.record(0)), "hello");
  uint8_t* q = page.replace_alloc(0, 3);
  q[0] = 2;
  q[1] = 'h';
  q[2] = 'i';
  EXPECT_EQ(key_of(page.record(0)), "hi");
  EXPECT_EQ(page.live_bytes(), 3u);
}

// Prefix-compare edges: "ab" sorts between "a" and "b", and a key that is
// a strict prefix of a stored key must land *before* it.
TEST(SlottedPageTest, SearchPrefixEdges) {
  SlottedPage page;
  for (const char* k : {"a", "ab", "abc", "b"}) page.append(rec_of(k));
  EXPECT_EQ(page.lower_bound("a", key_of), 0u);
  EXPECT_EQ(page.upper_bound("a", key_of), 1u);
  EXPECT_EQ(page.lower_bound("ab", key_of), 1u);
  EXPECT_EQ(page.lower_bound("abb", key_of), 2u);
  EXPECT_EQ(page.lower_bound("abc", key_of), 2u);
  EXPECT_EQ(page.upper_bound("abc", key_of), 3u);
  EXPECT_EQ(page.lower_bound("", key_of), 0u);
  EXPECT_EQ(page.lower_bound("zz", key_of), 4u);
}

// Branchless search must agree with std::lower_bound/upper_bound on
// random sorted key sets (duplicates and size-0/1/2 pages included) and
// read at most ceil(log2 n) + 1 keys per search, up to n = 4096: on compact
// pages of equal-length keys (searched at computed offsets) and on pages
// built by out-of-order inserts (searched through the slot array).
TEST(SlottedPageTest, SearchMatchesStdOnRandomSets) {
  Rng rng(20260808);
  const auto random_key = [&rng](size_t len) {
    std::string k;
    for (size_t j = 0; j < len; ++j) {
      k.push_back(static_cast<char>('a' + rng.uniform(3)));
    }
    return k;
  };
  size_t reads = 0;
  const auto counted_key_of = [&reads](std::string_view rec) {
    ++reads;
    return key_of(rec);
  };
  std::vector<size_t> sizes = {63, 64, 65, 100, 511, 512, 513, 4095, 4096};
  for (int round = 0; round < 200; ++round) sizes.push_back(rng.uniform(33));
  for (const size_t n : sizes) {
    for (const bool fixed : {true, false}) {
      const auto key_len = [&] { return fixed ? 8 : rng.uniform(6); };
      std::vector<std::string> keys;
      for (size_t i = 0; i < n; ++i) keys.push_back(random_key(key_len()));
      std::sort(keys.begin(), keys.end());
      SlottedPage page;
      if (fixed) {
        for (const std::string& k : keys) page.append(rec_of(k));
        ASSERT_TRUE(page.compact());
      } else {
        // Insert each key at its rank, in random order.
        std::vector<size_t> order(n);
        std::iota(order.begin(), order.end(), size_t{0});
        for (size_t i = n; i > 1; --i) {
          std::swap(order[i - 1], order[rng.uniform(i)]);
        }
        std::vector<size_t> placed;
        for (const size_t index : order) {
          const auto at = std::lower_bound(placed.begin(), placed.end(), index);
          page.insert(static_cast<size_t>(at - placed.begin()),
                      rec_of(keys[index]));
          placed.insert(at, index);
        }
        if (n >= 64) {
          ASSERT_FALSE(page.compact()) << "n=" << n;
        }
      }
      const size_t max_reads = n == 0 ? 0 : std::bit_width(n - 1) + 1;
      for (int probe = 0; probe < 20; ++probe) {
        const std::string q = random_key(key_len());
        const size_t lb = static_cast<size_t>(
            std::lower_bound(keys.begin(), keys.end(), q) - keys.begin());
        const size_t ub = static_cast<size_t>(
            std::upper_bound(keys.begin(), keys.end(), q) - keys.begin());
        reads = 0;
        EXPECT_EQ(page.lower_bound(q, counted_key_of), lb)
            << "n=" << n << " q=" << q;
        EXPECT_LE(reads, max_reads) << "n=" << n << " q=" << q;
        reads = 0;
        EXPECT_EQ(page.upper_bound(q, counted_key_of), ub)
            << "n=" << n << " q=" << q;
        EXPECT_LE(reads, max_reads) << "n=" << n << " q=" << q;
      }
    }
  }
}

// Fuzz: random mutation sequences against a vector<string> reference.
// Covers garbage growth + compaction, tail in-place replacement, boundary
// record sizes (empty keys, max u8 length), and round-trip after every
// few steps.
TEST(SlottedPageFuzzTest, MutationsMatchReferenceModel) {
  Rng rng(77001);
  for (int round = 0; round < 40; ++round) {
    SlottedPage page;
    std::vector<std::string> model;  // keys only (records derive from keys)
    for (int step = 0; step < 400; ++step) {
      const uint64_t action = rng.uniform(100);
      std::string key;
      const size_t len = rng.uniform(2) == 0
                             ? rng.uniform(4)        // short keys
                             : 200 + rng.uniform(56);  // near the u8 cap
      for (size_t j = 0; j < len; ++j) {
        key.push_back(static_cast<char>('a' + rng.uniform(26)));
      }
      if (action < 40 || model.empty()) {
        const size_t pos = rng.uniform(model.size() + 1);
        page.insert(pos, rec_of(key));
        model.insert(model.begin() + static_cast<ptrdiff_t>(pos), key);
      } else if (action < 60) {
        const size_t pos = rng.uniform(model.size());
        page.replace(pos, rec_of(key));
        model[pos] = key;
      } else if (action < 80) {
        const size_t pos = rng.uniform(model.size());
        page.erase(pos);
        model.erase(model.begin() + static_cast<ptrdiff_t>(pos));
      } else if (action < 90) {
        const size_t keep = rng.uniform(model.size() + 1);
        page.truncate(keep);
        model.resize(keep);
      } else {
        const size_t drop = rng.uniform(model.size() + 1);
        page.drop_front(drop);
        model.erase(model.begin(), model.begin() + static_cast<ptrdiff_t>(drop));
      }

      ASSERT_EQ(page.count(), model.size());
      if (step % 16 == 0) {
        std::vector<uint8_t> out;
        page.write_to(&out);
        ASSERT_EQ(out, image_of(model)) << "round " << round << " step "
                                        << step;
        ASSERT_EQ(page.live_bytes(), out.size());
        // Garbage stays bounded: amortized compaction invariant.
        ASSERT_LE(page.heap_bytes(), 2 * page.live_bytes() + 4096 + 512);
        // Rebuilding from the written image must reproduce the page.
        SlottedPage rebuilt;
        rebuilt.build_from_image(out.data(), out.size(), model.size(),
                                 kHeader, len_of);
        for (size_t i = 0; i < model.size(); ++i) {
          ASSERT_EQ(key_of(rebuilt.record(i)), model[i]);
        }
      }
    }
  }
}

}  // namespace
}  // namespace damkit::node
