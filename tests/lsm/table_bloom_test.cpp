// A table's Bloom filter is built from hash pairs the builder kept, not
// from copies of the keys. That must set exactly the bits add(key) sets,
// and those bits must not drift: the filter image over a fixed key set
// matches a known-answer digest, because the filter decides which point
// reads touch the device and so feeds simulated time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "kv/slice.h"
#include "lsm/sstable.h"
#include "sim/hdd.h"
#include "util/bloom.h"
#include "util/bytes.h"
#include "util/hash.h"
#include "util/rng.h"

namespace damkit::lsm {
namespace {

// 10k keys of 8-24 bytes.
std::vector<std::string> seeded_keys() {
  Rng rng(29);
  std::vector<std::string> keys(10'000);
  for (std::string& key : keys) {
    key = kv::encode_key(rng.next(), 8 + rng.uniform(17));
  }
  return keys;
}

std::vector<uint8_t> image_of(const BloomFilter& filter) {
  std::vector<uint8_t> image;
  filter.serialize(image);
  return image;
}

TEST(TableBloomTest, HashPairsSetTheBitsKeysSet) {
  const std::vector<std::string> keys = seeded_keys();
  BloomFilter by_key(keys.size(), kBloomBitsPerKey);
  for (const std::string& key : keys) by_key.add(key);
  std::vector<BloomFilter::Hashes> pairs;
  for (const std::string& key : keys) pairs.push_back(BloomFilter::hash(key));
  BloomFilter by_pair(keys.size(), kBloomBitsPerKey);
  for (const BloomFilter::Hashes& h : pairs) by_pair.add(h);

  const std::vector<uint8_t> image = image_of(by_key);
  EXPECT_EQ(image_of(by_pair), image);
  // Recorded from add(key) before hash pairs existed.
  EXPECT_EQ(image.size(), 12520u);
  EXPECT_EQ(hash_bytes(image), 13629448073824586729ULL);
}

TEST(TableBloomTest, BuiltTableFilterMatchesReferenceFilter) {
  std::vector<std::string> keys = seeded_keys();
  std::sort(keys.begin(), keys.end(), [](const auto& a, const auto& b) {
    return kv::compare(a, b) < 0;
  });
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  sim::HddConfig cfg;
  cfg.capacity_bytes = 1ULL * kGiB;
  sim::HddDevice dev(cfg);
  sim::IoContext io(dev);
  blockdev::ByteArena arena(dev, 0);
  SSTableBuilder builder(dev, io, arena, /*block_bytes=*/4096, 1);
  BloomFilter reference(keys.size(), kBloomBitsPerKey);
  for (const std::string& key : keys) {
    builder.add(EntryView{key, "v", false});
    reference.add(key);
  }
  StatusOr<SSTableRef> table = builder.try_finish();
  ASSERT_TRUE(table.ok()) << table.status().to_string();

  // Half the probes are table keys, half random keys of the same shape.
  Rng rng(31);
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) {
    const std::string probe =
        i % 2 == 0 ? keys[rng.uniform(keys.size())]
                   : kv::encode_key(rng.next(), 8 + rng.uniform(17));
    const bool maybe = (*table)->may_contain(probe);
    ASSERT_EQ(maybe, reference.may_contain(probe)) << "probe " << i;
    hits += maybe ? 1 : 0;
  }
  EXPECT_GE(hits, 50'000);
}

}  // namespace
}  // namespace damkit::lsm
