#include "util/bloom.h"

#include <cmath>

#include "util/bytes.h"
#include "util/status.h"

namespace damkit {

BloomFilter::BloomFilter(uint64_t expected_keys, double bits_per_key) {
  DAMKIT_CHECK(bits_per_key > 0.0);
  bit_count_ = std::max<uint64_t>(
      64, static_cast<uint64_t>(static_cast<double>(expected_keys) *
                                bits_per_key));
  bit_count_ = align_up(bit_count_, 64);
  bits_.assign(bit_count_ / 64, 0);
  // Optimal k = ln2 · bits/key, clamped to a sane range.
  hash_count_ = static_cast<int>(bits_per_key * 0.6931 + 0.5);
  if (hash_count_ < 1) hash_count_ = 1;
  if (hash_count_ > 16) hash_count_ = 16;
}

BloomFilter::Hashes BloomFilter::hash(std::string_view key) {
  // Two independent FNV-1a-style passes with different offsets/primes.
  uint64_t a = 0xcbf29ce484222325ULL;
  uint64_t b = 0x84222325cbf29ce4ULL;
  for (unsigned char c : key) {
    a = (a ^ c) * 0x100000001b3ULL;
    b = (b ^ c) * 0x100000001b5ULL;
  }
  // Finalize (splitmix-style avalanche).
  a ^= a >> 33;
  a *= 0xff51afd7ed558ccdULL;
  a ^= a >> 33;
  b ^= b >> 29;
  b *= 0xc4ceb9fe1a85ec53ULL;
  b ^= b >> 32;
  return Hashes{a, b | 1};  // odd stride
}

void BloomFilter::add(Hashes h) {
  for (int i = 0; i < hash_count_; ++i) {
    const uint64_t bit = (h.h1 + static_cast<uint64_t>(i) * h.h2) % bit_count_;
    bits_[bit / 64] |= 1ULL << (bit % 64);
  }
}

bool BloomFilter::may_contain(std::string_view key) const {
  const Hashes h = hash(key);
  for (int i = 0; i < hash_count_; ++i) {
    const uint64_t bit = (h.h1 + static_cast<uint64_t>(i) * h.h2) % bit_count_;
    if ((bits_[bit / 64] & (1ULL << (bit % 64))) == 0) return false;
  }
  return true;
}

void BloomFilter::serialize(std::vector<uint8_t>& out) const {
  out.resize(16 + bits_.size() * 8);
  store_u64(out.data(), bit_count_);
  store_u32(out.data() + 8, static_cast<uint32_t>(hash_count_));
  store_u32(out.data() + 12, 0);
  for (size_t i = 0; i < bits_.size(); ++i) {
    store_u64(out.data() + 16 + i * 8, bits_[i]);
  }
}

BloomFilter BloomFilter::deserialize(std::span<const uint8_t> image) {
  DAMKIT_CHECK(image.size() >= 16);
  BloomFilter f;
  f.bit_count_ = load_u64(image.data());
  f.hash_count_ = static_cast<int>(load_u32(image.data() + 8));
  DAMKIT_CHECK(f.bit_count_ % 64 == 0);
  const size_t words = f.bit_count_ / 64;
  DAMKIT_CHECK(image.size() >= 16 + words * 8);
  f.bits_.resize(words);
  for (size_t i = 0; i < words; ++i) {
    f.bits_[i] = load_u64(image.data() + 16 + i * 8);
  }
  return f;
}

}  // namespace damkit
