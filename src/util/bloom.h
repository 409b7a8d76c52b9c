// Blocked Bloom filter for LSM-tree point-query filtering.
//
// Standard double-hashing construction (Kirsch–Mitzenmacher): k probe
// positions derived from two 64-bit hashes. A key's hash pair can be taken
// ahead of time (hash()) and added later (add(Hashes)), which is how a
// table builder fills a filter it can size only once every key is in;
// add(key) is add(hash(key)), so one loop sets the probe bits.
// Serializable, since filters live alongside their SSTables on the
// simulated device.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace damkit {

class BloomFilter {
 public:
  /// Sized for `expected_keys` at `bits_per_key` (10 → ~1% false-positive
  /// rate). expected_keys == 0 yields an always-false filter.
  BloomFilter(uint64_t expected_keys, double bits_per_key = 10.0);

  /// A key's two base hashes: probe i is bit (h1 + i * h2) mod bit_count.
  struct Hashes {
    uint64_t h1;
    uint64_t h2;  // odd
  };
  static Hashes hash(std::string_view key);

  void add(Hashes h);
  void add(std::string_view key) { add(hash(key)); }

  /// False positives possible; false negatives never.
  bool may_contain(std::string_view key) const;

  uint64_t bit_count() const { return bit_count_; }
  int hash_count() const { return hash_count_; }
  uint64_t byte_size() const { return bits_.size() * 8 + 16; }

  /// Serialized image: u64 bit_count, u32 hash_count, u32 pad, words.
  void serialize(std::vector<uint8_t>& out) const;
  static BloomFilter deserialize(std::span<const uint8_t> image);

 private:
  BloomFilter() = default;

  uint64_t bit_count_ = 0;
  int hash_count_ = 1;
  std::vector<uint64_t> bits_;
};

}  // namespace damkit
