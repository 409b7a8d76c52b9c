// Byte-level helpers: little-endian fixed-width encode/decode used by the
// on-"disk" node formats, the node IO buffer type, and human-readable
// byte-size formatting/parsing used by benches and reports.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace damkit {

// ---------------------------------------------------------------------------
// Little-endian fixed-width codecs. All node serialization goes through
// these so that the stored images are architecture-independent.
// ---------------------------------------------------------------------------

inline void store_u16(uint8_t* dst, uint16_t v) {
  dst[0] = static_cast<uint8_t>(v);
  dst[1] = static_cast<uint8_t>(v >> 8);
}

inline void store_u32(uint8_t* dst, uint32_t v) {
  for (int i = 0; i < 4; ++i) dst[i] = static_cast<uint8_t>(v >> (8 * i));
}

inline void store_u64(uint8_t* dst, uint64_t v) {
  for (int i = 0; i < 8; ++i) dst[i] = static_cast<uint8_t>(v >> (8 * i));
}

inline uint16_t load_u16(const uint8_t* src) {
  return static_cast<uint16_t>(src[0] | (static_cast<uint16_t>(src[1]) << 8));
}

inline uint32_t load_u32(const uint8_t* src) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(src[i]) << (8 * i);
  return v;
}

inline uint64_t load_u64(const uint8_t* src) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(src[i]) << (8 * i);
  return v;
}

// ---------------------------------------------------------------------------
// Node IO buffers.
// ---------------------------------------------------------------------------

/// std::allocator, except that value-initialising construction (what
/// resize() does) default-initialises instead, so a trivial element is
/// left unwritten.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// A byte vector whose resize() does not zero-fill: the buffer a device
/// read lands in, the heap a parsed node adopts, and the image a node
/// serializes into. New bytes hold garbage until written, so fill a range
/// with resize() then one memcpy (range insert/assign construct byte by
/// byte), and zero padding explicitly.
using ByteBuffer = std::vector<uint8_t, DefaultInitAllocator<uint8_t>>;

/// A ByteBuffer holding a copy of `bytes`, made with one memcpy.
inline ByteBuffer copy_bytes(std::span<const uint8_t> bytes) {
  ByteBuffer out(bytes.size());
  if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
  return out;
}

// ---------------------------------------------------------------------------
// Size literals and formatting.
// ---------------------------------------------------------------------------

inline constexpr uint64_t kKiB = 1024;
inline constexpr uint64_t kMiB = 1024 * kKiB;
inline constexpr uint64_t kGiB = 1024 * kMiB;

/// "4 KiB", "2.5 MiB", "128 B" — two significant decimals max.
std::string format_bytes(uint64_t bytes);

/// Parses "64k", "64KiB", "4m", "1GiB", "512" (bytes). Returns 0 on failure.
uint64_t parse_bytes(std::string_view text);

/// Round `v` up to a multiple of `alignment` (alignment must be > 0).
constexpr uint64_t align_up(uint64_t v, uint64_t alignment) {
  return (v + alignment - 1) / alignment * alignment;
}

/// Integer ceiling division.
constexpr uint64_t ceil_div(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

}  // namespace damkit
