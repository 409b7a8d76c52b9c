// The three wire records every engine stores, each stated once. DESIGN.md
// §6.1 lists their formats, where each is stored, and the key limit that
// the u16 key length sets. Integers are little-endian (util/bytes.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/bytes.h"
#include "util/status.h"

namespace damkit::node {

/// Longest key any record can hold: the u16 key-length field's maximum.
inline constexpr size_t kMaxKeyBytes = UINT16_MAX;

namespace detail {

/// The rejection of a `bytes`-byte key, cold so the inlined check is small.
[[gnu::cold, gnu::noinline]] inline Status key_too_long(size_t bytes) {
  return Status::invalid_argument(
      "key of " + std::to_string(bytes) + " bytes exceeds the " +
      std::to_string(kMaxKeyBytes) + "-byte record key limit");
}

inline const uint8_t* bytes_of(std::string_view rec) {
  return reinterpret_cast<const uint8_t*>(rec.data());
}

/// Copy `bytes` to `at`; returns the end of the copy. An empty view's data()
/// may be null, which memcpy must not be given even for zero bytes.
inline uint8_t* copy_field(uint8_t* at, std::string_view bytes) {
  if (!bytes.empty()) std::memcpy(at, bytes.data(), bytes.size());
  return at + bytes.size();
}

/// Store the u16 key length at `klen_at` and the key at `body`; returns the
/// end of the key.
inline uint8_t* encode_key(uint8_t* klen_at, uint8_t* body,
                           std::string_view key) {
  DAMKIT_CHECK(key.size() <= kMaxKeyBytes);
  store_u16(klen_at, static_cast<uint16_t>(key.size()));
  return copy_field(body, key);
}

}  // namespace detail

/// OK, or kInvalidArgument when `key` is longer than kMaxKeyBytes.
inline Status check_key_size(std::string_view key) {
  if (key.size() <= kMaxKeyBytes) return Status();
  return detail::key_too_long(key.size());
}

/// Each record has its header size, its length read from the header at `p`,
/// field views of a whole record `rec`, its encoded size, and an encoder
/// into encoded_size() bytes at `p`. KvRecord and TaggedRecord share this
/// [u16 klen][u32 vlen][key][value] layout after kTagBytes (0 or 1) tags.
template <size_t kTagBytes>
struct KeyValueLayout {
  static constexpr size_t kHeaderBytes = kTagBytes + 6;

  static size_t encoded_size(size_t klen, size_t vlen) {
    return kHeaderBytes + klen + vlen;
  }
  static size_t length(const uint8_t* p) {
    return kHeaderBytes + load_u16(p + kTagBytes) + load_u32(p + kTagBytes + 2);
  }
  static std::string_view key(std::string_view rec) {
    return {rec.data() + kHeaderBytes, klen(rec)};
  }
  static std::string_view value(std::string_view rec) {
    const size_t at = kHeaderBytes + klen(rec);
    return {rec.data() + at, rec.size() - at};
  }

 protected:
  static uint16_t klen(std::string_view rec) {
    return load_u16(detail::bytes_of(rec) + kTagBytes);
  }
  static void encode_key_value(uint8_t* p, std::string_view key,
                               std::string_view value) {
    store_u32(p + kTagBytes + 2, static_cast<uint32_t>(value.size()));
    uint8_t* at = detail::encode_key(p + kTagBytes, p + kHeaderBytes, key);
    detail::copy_field(at, value);
  }
};

struct KvRecord : KeyValueLayout<0> {
  static void encode(uint8_t* p, std::string_view key,
                     std::string_view value) {
    encode_key_value(p, key, value);
  }
};

/// [u16 klen][key].
struct PivotRecord {
  static constexpr size_t kHeaderBytes = 2;

  static size_t encoded_size(size_t klen) { return kHeaderBytes + klen; }
  static size_t length(const uint8_t* p) { return kHeaderBytes + load_u16(p); }
  static std::string_view key(std::string_view rec) {
    return {rec.data() + kHeaderBytes, rec.size() - kHeaderBytes};
  }
  static void encode(uint8_t* p, std::string_view key) {
    detail::encode_key(p, p + kHeaderBytes, key);
  }
};

struct TaggedRecord : KeyValueLayout<1> {
  /// One record's decoded header, borrowing its key and value. Plain
  /// scalars, so a copy stays in registers (string_views were spilled).
  struct View {
    uint8_t tag;
    uint16_t key_bytes;
    uint32_t value_bytes;
    const char* body;  // the key, then the value
    std::string_view key() const { return {body, key_bytes}; }
    std::string_view value() const { return {body + key_bytes, value_bytes}; }
  };

  /// The record at `p`, whose length is length(p).
  static View view(const uint8_t* p) {
    return View{p[0], load_u16(p + 1), load_u32(p + 3),
                reinterpret_cast<const char*>(p + kHeaderBytes)};
  }
  static void encode(uint8_t* p, uint8_t tag, std::string_view key,
                     std::string_view value) {
    p[0] = tag;
    encode_key_value(p, key, value);
  }
};

}  // namespace damkit::node
