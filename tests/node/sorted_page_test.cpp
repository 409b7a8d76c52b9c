// SortedPage<Rec>: the typed page against a std::map model under random
// put, erase, strictly ascending append, split and append-all, with
// live_bytes() checked against the sum of the records' encoded sizes and
// the wire image re-parsed from a padded prefix along the way.
#include "node/sorted_page.h"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace damkit::node {
namespace {

using Model = std::map<std::string, std::string>;

std::string random_key(Rng& rng) {
  std::string key;
  const size_t len = rng.uniform(5);  // includes the empty key
  for (size_t i = 0; i < len; ++i) {
    key.push_back(static_cast<char>('a' + rng.uniform(4)));
  }
  return key;
}

size_t rank(const Model& model, Model::const_iterator it) {
  return static_cast<size_t>(std::distance(model.begin(), it));
}

void expect_matches(const KvPage& page, const Model& model) {
  ASSERT_EQ(page.count(), model.size());
  size_t bytes = 0;
  size_t i = 0;
  for (const auto& [key, value] : model) {
    ASSERT_EQ(page.key(i), key) << i;
    ASSERT_EQ(page.value(i), value) << i;
    ASSERT_EQ(page.record(i).size(),
              KvRecord::encoded_size(key.size(), value.size()));
    bytes += KvRecord::encoded_size(key.size(), value.size());
    ++i;
  }
  ASSERT_EQ(page.live_bytes(), bytes);
}

TEST(SortedPageTest, EmptyPage) {
  KvPage page;
  EXPECT_TRUE(page.empty());
  EXPECT_EQ(page.live_bytes(), 0u);
  EXPECT_EQ(page.lower_bound("a"), 0u);
  EXPECT_EQ(page.upper_bound("a"), 0u);
  EXPECT_FALSE(page.find("").has_value());
  EXPECT_FALSE(page.erase("a"));
  std::vector<uint8_t> out;
  page.write_to(&out);
  EXPECT_TRUE(out.empty());
}

TEST(SortedPageTest, BoundsAndFind) {
  KvPage page;
  for (const char* k : {"b", "d", "f"}) page.append(k, "v");
  EXPECT_EQ(page.lower_bound("a"), 0u);
  EXPECT_EQ(page.lower_bound("d"), 1u);
  EXPECT_EQ(page.upper_bound("d"), 2u);
  EXPECT_EQ(page.upper_bound("z"), 3u);
  EXPECT_EQ(page.find("f"), std::optional<size_t>(2));
  EXPECT_FALSE(page.find("e").has_value());
  EXPECT_TRUE(page.key_equals(0, "b"));
  EXPECT_FALSE(page.key_equals(3, "b"));
}

TEST(SortedPageDeathTest, AppendOutOfOrderAborts) {
  KvPage page;
  page.append("m", "v");
  EXPECT_DEATH(page.append("m", "v"), "DAMKIT_CHECK failed");
  EXPECT_DEATH(page.append("a", "v"), "DAMKIT_CHECK failed");
}

TEST(SortedPageTest, PivotPagePositionalEdits) {
  PivotPage page;
  page.insert_at(0, "m");
  page.insert_at(0, "c");
  page.insert_at(2, "t");
  ASSERT_EQ(page.count(), 3u);
  EXPECT_EQ(page.key(0), "c");
  EXPECT_EQ(page.key(2), "t");
  EXPECT_EQ(page.upper_bound("m"), 2u);
  page.replace_at(1, "mm");
  EXPECT_EQ(page.key(1), "mm");
  EXPECT_EQ(page.live_bytes(), 3 * PivotRecord::kHeaderBytes + 4);
  PivotPage right;
  right.insert_at(0, page.key(2));
  page.truncate(2);
  page.drop_front(1);
  page.erase_at(0);
  EXPECT_TRUE(page.empty());
  ASSERT_EQ(right.count(), 1u);
  EXPECT_EQ(right.key(0), "t");
}

TEST(SortedPageTest, TaggedPageParsesAnExactImage) {
  std::vector<uint8_t> image;
  const auto add = [&](uint8_t tag, std::string_view key,
                       std::string_view value) {
    const size_t at = image.size();
    image.resize(at + TaggedRecord::encoded_size(key.size(), value.size()));
    TaggedRecord::encode(image.data() + at, tag, key, value);
  };
  add(0, "a", "1");
  add(1, "b", "");
  add(0, "c", "333");
  TaggedPage page;
  page.parse(image.data(), image.size(), 3);
  ASSERT_EQ(page.count(), 3u);
  EXPECT_EQ(page.live_bytes(), image.size());
  const std::optional<size_t> b = page.find("b");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(TaggedRecord::view(detail::bytes_of(page.record(*b))).tag, 1u);
  EXPECT_EQ(page.value(2), "333");
}

TEST(SortedPageFuzzTest, MutationsMatchTheMapModel) {
  Rng rng(20261017);
  KvPage page;
  Model model;
  for (int step = 0; step < 4000; ++step) {
    const uint64_t action = rng.uniform(100);
    if (action < 45) {
      const std::string key = random_key(rng);
      const std::string value(rng.uniform(40),
                              static_cast<char>('0' + step % 10));
      const bool fresh = model.find(key) == model.end();
      model[key] = value;
      ASSERT_EQ(page.put(key, value), fresh) << step;
    } else if (action < 70) {
      const std::string key = random_key(rng);
      ASSERT_EQ(page.erase(key), model.erase(key) == 1) << step;
    } else if (action < 85) {
      // Strictly after the largest key: extend it (or start from "a").
      std::string key = model.empty() ? "a" : model.rbegin()->first;
      key.push_back(static_cast<char>('a' + rng.uniform(4)));
      const std::string value(rng.uniform(20), 'x');
      page.append(key, value);
      model[key] = value;
    } else if (page.count() >= 2) {
      const size_t half = page.live_bytes() / 2;
      KvPage right;
      page.split_into(right);
      ASSERT_GE(page.count(), 1u);
      ASSERT_GE(right.count(), 1u);
      ASSERT_EQ(page.count() + right.count(), model.size());
      // The left keeps the shortest prefix that reaches half the bytes.
      const size_t last = page.record(page.count() - 1).size();
      ASSERT_TRUE(page.count() == 1 || page.live_bytes() - last < half);
      ASSERT_TRUE(right.count() == 1 || page.live_bytes() >= half);
      ASSERT_LT(kv::compare(page.key(page.count() - 1), right.key(0)), 0);
      if (action < 93) {
        page.append_all(right);  // merge the halves back
      } else {
        model.erase(model.find(std::string(right.key(0))), model.end());
      }
    }
    ASSERT_NO_FATAL_FAILURE(expect_matches(page, model)) << step;

    const std::string probe = random_key(rng);
    ASSERT_EQ(page.lower_bound(probe), rank(model, model.lower_bound(probe)));
    ASSERT_EQ(page.upper_bound(probe), rank(model, model.upper_bound(probe)));
    ASSERT_EQ(page.find(probe).has_value(), model.count(probe) == 1);

    if (step % 97 == 0) {
      // Round-trip through the wire image, parsed from a padded prefix.
      std::vector<uint8_t> image;
      page.write_to(&image);
      ASSERT_EQ(image.size(), page.live_bytes());
      image.resize(image.size() + 64, 0);
      KvPage back;
      ASSERT_EQ(back.parse_prefix(image.data(), image.size(), page.count()),
                page.live_bytes());
      ASSERT_NO_FATAL_FAILURE(expect_matches(back, model)) << step;
    }
  }
}

}  // namespace
}  // namespace damkit::node
