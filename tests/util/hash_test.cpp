// The word-at-a-time hash behind the read digest and the WAL and snapshot
// checks: pinned known answers, agreement with a byte-at-a-time statement
// of the definition, field framing, single-bit sensitivity, and unaligned
// input.
#include "util/hash.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

namespace damkit {
namespace {

std::vector<uint8_t> pattern(size_t n) {
  std::vector<uint8_t> data(n);
  for (size_t i = 0; i < n; ++i) data[i] = static_cast<uint8_t>(i * 37 + 11);
  return data;
}

// The definition, one byte at a time: little-endian 8-byte words, then a
// zero-padded tail word whose top byte is the length.
uint64_t reference_mix(uint64_t h, const std::vector<uint8_t>& data) {
  uint64_t word = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    word |= uint64_t{data[i]} << (8 * (i % 8));
    if (i % 8 == 7) {
      h = mix_word(h, word);
      word = 0;
    }
  }
  return mix_word(h, word | (uint64_t{data.size()} << 56));
}

TEST(HashTest, KnownAnswers) {
  EXPECT_EQ(hash_bytes(pattern(0)), 0x456308AEAB026666ULL);
  EXPECT_EQ(hash_bytes(pattern(1)), 0x41A9A38D1C4151A6ULL);
  EXPECT_EQ(hash_bytes(pattern(7)), 0xAD68DFDFBDE87DF4ULL);
  EXPECT_EQ(hash_bytes(pattern(8)), 0xAF54738976AA3ADDULL);
  EXPECT_EQ(hash_bytes(pattern(9)), 0xC5CFE55B000E0294ULL);
  EXPECT_EQ(hash_bytes(pattern(16)), 0xEE9A6E8A65D5EF95ULL);
  EXPECT_EQ(hash_bytes(pattern(100)), 0x27CA24D7B3AA6750ULL);
}

TEST(HashTest, MatchesByteAtATimeDefinition) {
  for (size_t n = 0; n <= 72; ++n) {
    const std::vector<uint8_t> data = pattern(n);
    EXPECT_EQ(hash_bytes(data), reference_mix(kHashSeed, data)) << n;
    const std::string_view text(reinterpret_cast<const char*>(data.data()),
                                data.size());
    EXPECT_EQ(mix_bytes(kHashSeed, text), hash_bytes(data)) << n;
  }
}

TEST(HashTest, FieldsFrameThemselves) {
  const uint64_t ab_c = mix_bytes(mix_bytes(kHashSeed, "ab"), "c");
  const uint64_t a_bc = mix_bytes(mix_bytes(kHashSeed, "a"), "bc");
  EXPECT_NE(ab_c, a_bc);
  EXPECT_NE(mix_bytes(kHashSeed, std::string_view("", 0)),
            mix_bytes(kHashSeed, std::string_view("\0", 1)));
}

TEST(HashTest, EverySingleBitFlipChangesTheHash) {
  for (size_t n = 1; n <= 72; ++n) {
    std::vector<uint8_t> data = pattern(n);
    const uint64_t clean = hash_bytes(data);
    for (size_t byte = 0; byte < n; ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        data[byte] ^= static_cast<uint8_t>(1u << bit);
        EXPECT_NE(hash_bytes(data), clean)
            << n << " bytes, byte " << byte << " bit " << bit;
        data[byte] ^= static_cast<uint8_t>(1u << bit);
      }
    }
  }
}

TEST(HashTest, UnalignedSpanHashesLikeAlignedCopy) {
  const std::vector<uint8_t> source = pattern(128);
  alignas(8) uint8_t buffer[136];
  for (size_t offset = 1; offset < 8; offset += 2) {
    std::memcpy(buffer + offset, source.data(), source.size());
    for (size_t n = 0; n <= source.size(); ++n) {
      const std::vector<uint8_t> aligned(source.begin(), source.begin() + n);
      EXPECT_EQ(hash_bytes({buffer + offset, n}), hash_bytes(aligned))
          << "offset " << offset << ", " << n << " bytes";
    }
  }
}

}  // namespace
}  // namespace damkit
