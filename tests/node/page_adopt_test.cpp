// The one-copy parse: a page that adopts a node image as its heap, with the
// records starting after a node header of `base` bytes, must behave exactly
// like a page parsed by copying the same records, through every mutation
// and search path; and B-tree and Bε-tree nodes parsed by adoption or from
// borrowed bytes must serialize back to the image they were read from.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "betree/betree_node.h"
#include "betree/message.h"
#include "btree/btree_node.h"
#include "kv/slice.h"
#include "node/sorted_page.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace damkit::node {
namespace {

// Node-header sizes the records can sit behind: none, a Bε-tree header, a
// B-tree header, and an odd one.
constexpr size_t kBases[] = {0, 9, 17, 31};

std::vector<uint8_t> image_of(const KvPage& page) {
  std::vector<uint8_t> out;
  page.write_to(&out);
  return out;
}

// `records` behind `base` header bytes and followed by padding, as a node
// store hands back a whole extent.
ByteBuffer extent_of(const std::vector<uint8_t>& records, size_t base) {
  std::vector<uint8_t> extent(base, 0xEE);
  extent.insert(extent.end(), records.begin(), records.end());
  extent.resize(extent.size() + 256, 0);
  return copy_bytes(extent);
}

// Both pages hold the same records, answer every search alike (probes at,
// between and past the keys), and write the same image.
void expect_same(const KvPage& adopted, const KvPage& copied,
                 const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(adopted.count(), copied.count());
  ASSERT_EQ(adopted.live_bytes(), copied.live_bytes());
  std::vector<std::string> probes = {"", "\xff\xff"};
  for (size_t i = 0; i < copied.count(); ++i) {
    ASSERT_EQ(adopted.record(i), copied.record(i)) << i;
    const std::string key(copied.key(i));
    probes.push_back(key);
    probes.push_back(key + '\0');
  }
  for (const std::string& probe : probes) {
    EXPECT_EQ(adopted.lower_bound(probe), copied.lower_bound(probe));
    EXPECT_EQ(adopted.upper_bound(probe), copied.upper_bound(probe));
  }
  EXPECT_EQ(image_of(adopted), image_of(copied));
}

// A seeded page of `n` records: every value of one length when `uniform`
// (the fixed-stride search), else of mixed lengths (the slot search).
KvPage seeded_page(Rng& rng, size_t n, bool uniform) {
  KvPage page;
  for (size_t i = 0; i < n; ++i) {
    const size_t vlen = uniform ? 24 : rng.uniform(40);
    page.append(kv::encode_key(i * 4 + 2, 16), kv::make_value(i, vlen));
  }
  return page;
}

TEST(PageAdoptTest, AdoptedPageMatchesCopiedPageThroughMutations) {
  for (const bool uniform : {true, false}) {
    for (const size_t base : kBases) {
      Rng rng(base * 2 + (uniform ? 1 : 0));
      const std::vector<uint8_t> records =
          image_of(seeded_page(rng, 120, uniform));
      const ByteBuffer extent = extent_of(records, base);

      KvPage copied;
      ASSERT_EQ(copied.parse_prefix(extent.data() + base, extent.size() - base,
                                    120),
                records.size());
      KvPage adopted;
      ASSERT_EQ(adopted.adopt_prefix(ByteBuffer(extent), base, 120),
                records.size());
      const std::string at = "base " + std::to_string(base) +
                             (uniform ? " uniform" : " mixed");
      expect_same(adopted, copied, at + " parsed");

      // Each step is applied to both pages, then compared.
      const auto step = [&](const std::string& what, auto&& edit) {
        edit(adopted);
        edit(copied);
        expect_same(adopted, copied, at + " after " + what);
      };
      uint64_t next = 1000;
      for (int round = 0; round < 40; ++round) {
        const size_t n = copied.count();
        // A small page splits and refills instead of shrinking further.
        switch (n < 16 ? 7 : rng.uniform(8)) {
          case 0: {
            const std::string key =
                kv::encode_key(rng.uniform(600) * 4 + 1, 16);
            step("insert", [&](KvPage& p) { p.put(key, "inserted"); });
            break;
          }
          case 1: {
            const std::string value = kv::make_value(next++, 24);
            step("replace at the tail", [&](KvPage& p) {
              p.replace_at(n - 1, std::string(p.key(n - 1)), value);
            });
            break;
          }
          case 2: {
            const size_t i = n / 2;
            const std::string value = kv::make_value(next++, rng.uniform(48));
            step("replace in the middle", [&](KvPage& p) {
              p.replace_at(i, std::string(p.key(i)), value);
            });
            break;
          }
          case 3:
            step("erase at the tail", [&](KvPage& p) { p.erase_at(n - 1); });
            break;
          case 4:
            step("erase in the middle",
                 [&](KvPage& p) { p.erase_at(n / 2); });
            break;
          case 5:
            step("truncate", [&](KvPage& p) { p.truncate(n - n / 8); });
            break;
          case 6:
            step("drop_front", [&](KvPage& p) { p.drop_front(n / 8); });
            break;
          default: {
            KvPage right_adopted;
            KvPage right_copied;
            adopted.split_into(right_adopted);
            copied.split_into(right_copied);
            expect_same(adopted, copied, at + " after split_into (left)");
            expect_same(right_adopted, right_copied,
                        at + " after split_into (right)");
            // Keep working on the left half, refilled past its old size.
            for (uint64_t i = 0; i < 40; ++i) {
              const std::string key = kv::encode_key(5000 + next + i, 16);
              step("refill", [&](KvPage& p) { p.append(key, "refill"); });
            }
            next += 40;
          }
        }
      }

      // Replacing two neighbours in turn (at most one can sit at the heap
      // tail) leaves garbage until the page compacts itself.
      bool loose = false;
      for (int k = 0; k < 2000; ++k) {
        const size_t i = copied.count() / 2 + static_cast<size_t>(k % 2);
        const std::string value = kv::make_value(next++, 64);
        adopted.replace_at(i, std::string(adopted.key(i)), value);
        copied.replace_at(i, std::string(copied.key(i)), value);
        if (!adopted.compact()) {
          loose = true;
        } else if (loose) {
          break;
        }
      }
      EXPECT_TRUE(loose && adopted.compact()) << at << ": no compaction";
      expect_same(adopted, copied, at + " after a forced compaction");
    }
  }
}

// A node image padded out to its extent, as the node store reads it back.
std::vector<uint8_t> padded(std::vector<uint8_t> image) {
  image.resize(image.size() + 512, 0);
  return image;
}

template <typename Node>
void expect_both_parses_round_trip(const Node& original) {
  std::vector<uint8_t> image;
  original.serialize(image);
  const std::vector<uint8_t> extent = padded(image);

  std::vector<uint8_t> out;
  Node::deserialize(copy_bytes(extent))->serialize(out);
  EXPECT_EQ(out, image) << "adopting parse";
  Node::deserialize(std::span<const uint8_t>(extent))->serialize(out);
  EXPECT_EQ(out, image) << "span parse";
}

TEST(NodeAdoptTest, BTreeNodesRoundTripThroughBothParses) {
  auto leaf = btree::BTreeNode::make_leaf();
  for (uint64_t i = 0; i < 100; ++i) {
    leaf->leaf_put(kv::encode_key(i * 7 % 100, 16), kv::make_value(i, i % 30));
  }
  leaf->set_next_leaf(42);
  expect_both_parses_round_trip(*leaf);

  auto internal = btree::BTreeNode::make_internal();
  internal->internal_init(1);
  for (uint64_t i = 0; i < 60; ++i) {
    internal->internal_insert(i, kv::encode_key(i * 3 + 1, 16), i + 2);
  }
  expect_both_parses_round_trip(*internal);
}

TEST(NodeAdoptTest, BeTreeNodesRoundTripThroughBothParses) {
  auto leaf = betree::BeTreeNode::make_leaf();
  for (uint64_t i = 0; i < 100; ++i) {
    leaf->leaf_append(kv::encode_key(i, 16), kv::make_value(i, i % 30));
  }
  expect_both_parses_round_trip(*leaf);

  auto internal = betree::BeTreeNode::make_internal();
  internal->internal_init(10);
  internal->internal_insert(0, "m", 11);
  internal->internal_insert(1, "t", 12);
  for (uint64_t i = 0; i < 30; ++i) {
    const std::string key = kv::encode_key(i, 8);
    internal->buffer_add(i % 3, {betree::MessageKind::kPut, key, "v"});
    internal->buffer_add((i + 1) % 3,
                         {betree::MessageKind::kTombstone, key, ""});
    internal->buffer_add(
        (i + 2) % 3,
        {betree::MessageKind::kUpsert, key,
         betree::encode_delta(static_cast<int64_t>(i))});
  }
  expect_both_parses_round_trip(*internal);
}

}  // namespace
}  // namespace damkit::node
