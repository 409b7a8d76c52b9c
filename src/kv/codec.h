// Bounds-checked binary serialization for on-"disk" node images.
// Little-endian fixed-width framing via util/bytes.h primitives.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.h"
#include "util/status.h"

namespace damkit::kv {

/// Appends primitives to a byte vector (std::vector<uint8_t> or
/// ByteBuffer).
template <typename Bytes>
class Writer {
 public:
  explicit Writer(Bytes& out) : out_(&out) {}

  void put_u8(uint8_t v) { out_->push_back(v); }
  void put_u16(uint16_t v) {
    const size_t at = grow(2);
    store_u16(out_->data() + at, v);
  }
  void put_u32(uint32_t v) {
    const size_t at = grow(4);
    store_u32(out_->data() + at, v);
  }
  void put_u64(uint64_t v) {
    const size_t at = grow(8);
    store_u64(out_->data() + at, v);
  }
  void put_bytes(std::string_view s) {
    if (s.empty()) return;  // s.data() may be null
    const size_t at = grow(s.size());
    std::memcpy(out_->data() + at, s.data(), s.size());
  }
  /// u32 length prefix + bytes.
  void put_lp_bytes(std::string_view s) {
    DAMKIT_CHECK(s.size() <= UINT32_MAX);
    put_u32(static_cast<uint32_t>(s.size()));
    put_bytes(s);
  }

  size_t size() const { return out_->size(); }

 private:
  size_t grow(size_t by) {
    const size_t at = out_->size();
    out_->resize(at + by);
    return at;
  }
  Bytes* out_;
};

/// Reads primitives from a byte span; all reads are bounds-CHECKed (a
/// short read means the node image is corrupt, which is a library bug,
/// not a user error).
class Reader {
 public:
  explicit Reader(std::span<const uint8_t> data) : data_(data) {}

  uint8_t get_u8() {
    need(1);
    return data_[pos_++];
  }
  uint16_t get_u16() {
    need(2);
    const uint16_t v = load_u16(data_.data() + pos_);
    pos_ += 2;
    return v;
  }
  uint32_t get_u32() {
    need(4);
    const uint32_t v = load_u32(data_.data() + pos_);
    pos_ += 4;
    return v;
  }
  uint64_t get_u64() {
    need(8);
    const uint64_t v = load_u64(data_.data() + pos_);
    pos_ += 8;
    return v;
  }
  std::string get_bytes(size_t n) {
    need(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  std::string get_lp_bytes() { return get_bytes(get_u32()); }

  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  void need(size_t n) {
    DAMKIT_CHECK_MSG(pos_ + n <= data_.size(),
                     "short read: need " << n << " at " << pos_ << " of "
                                         << data_.size());
  }
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace damkit::kv
