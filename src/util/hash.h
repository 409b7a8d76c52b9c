// Word-at-a-time 64-bit hash behind every host digest and device checksum:
// the read digest (kv/op_apply.h), the crash harness's state digest, and
// the WAL record and snapshot checks.
//
// Input is read as 8-byte little-endian words, each folded into the state
// with one multiply-xorshift step. The last 0-7 bytes are zero-padded into
// a tail word whose top byte carries the input length (mod 256), so
// consecutive fields frame themselves: ("ab", "c") and ("a", "bc") differ,
// and so do "" and "\0". Every step is a bijection in the word for a fixed
// state and in the state for a fixed word, so changing any one input byte
// always changes the result. Not cryptographic, and independent of the
// hashes that feed simulated time (shard placement, Bloom probes).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

namespace damkit {

/// hash_bytes' seed.
inline constexpr uint64_t kHashSeed = 0x6A09E667F3BCC908ULL;

/// Fold one 64-bit word into state `h`.
constexpr uint64_t mix_word(uint64_t h, uint64_t w) {
  // Odd, so the multiply is a bijection (splitmix64's first constant).
  h = (h ^ w) * 0xBF58476D1CE4E5B9ULL;
  return h ^ (h >> 32);
}

/// Fold `data` into state `h` as one length-framed field.
inline uint64_t mix_bytes(uint64_t h, std::span<const uint8_t> data) {
  const auto load = [](const uint8_t* src) {
    uint64_t w;
    std::memcpy(&w, src, sizeof(w));
    if constexpr (std::endian::native == std::endian::big) {
      w = __builtin_bswap64(w);
    }
    return w;
  };
  const size_t n = data.size();
  const uint8_t* p = data.data();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) h = mix_word(h, load(p + i));
  uint64_t tail = 0;
  if (n < 8) {
    for (size_t j = 0; j < n; ++j) tail |= uint64_t{p[j]} << (8 * j);
  } else if (i < n) {
    // The last 8 bytes, shifted down to the n - i not yet consumed.
    tail = load(p + n - 8) >> (8 * (8 - (n - i)));
  }
  return mix_word(h, tail | (uint64_t{n} << 56));
}

inline uint64_t mix_bytes(uint64_t h, std::string_view data) {
  const auto* bytes = reinterpret_cast<const uint8_t*>(data.data());
  return mix_bytes(h, std::span(bytes, data.size()));
}

/// The hash of `data` alone: the WAL and snapshot checks.
inline uint64_t hash_bytes(std::span<const uint8_t> data) {
  return mix_bytes(kHashSeed, data);
}

}  // namespace damkit
