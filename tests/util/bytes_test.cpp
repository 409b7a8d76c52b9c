#include "util/bytes.h"

#include <gtest/gtest.h>

#include <limits>

namespace damkit {
namespace {

TEST(BytesTest, U16RoundTrip) {
  uint8_t buf[2];
  for (uint32_t v : {0u, 1u, 255u, 256u, 65535u}) {
    store_u16(buf, static_cast<uint16_t>(v));
    EXPECT_EQ(load_u16(buf), v);
  }
}

TEST(BytesTest, U32RoundTrip) {
  uint8_t buf[4];
  for (uint32_t v : {0u, 1u, 0xdeadbeefu, std::numeric_limits<uint32_t>::max()}) {
    store_u32(buf, v);
    EXPECT_EQ(load_u32(buf), v);
  }
}

TEST(BytesTest, U64RoundTrip) {
  uint8_t buf[8];
  for (uint64_t v :
       {uint64_t{0}, uint64_t{1}, uint64_t{0x0123456789abcdefULL},
        std::numeric_limits<uint64_t>::max()}) {
    store_u64(buf, v);
    EXPECT_EQ(load_u64(buf), v);
  }
}

TEST(BytesTest, LittleEndianLayout) {
  uint8_t buf[4];
  store_u32(buf, 0x01020304u);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[1], 0x03);
  EXPECT_EQ(buf[2], 0x02);
  EXPECT_EQ(buf[3], 0x01);
}

TEST(BytesTest, FormatBytes) {
  EXPECT_EQ(format_bytes(0), "0 B");
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(4 * kKiB), "4 KiB");
  EXPECT_EQ(format_bytes(kMiB), "1 MiB");
  EXPECT_EQ(format_bytes(3 * kGiB), "3 GiB");
  EXPECT_EQ(format_bytes(kMiB + kMiB / 2), "1.50 MiB");
}

TEST(BytesTest, ParseBytes) {
  EXPECT_EQ(parse_bytes("512"), 512u);
  EXPECT_EQ(parse_bytes("4k"), 4 * kKiB);
  EXPECT_EQ(parse_bytes("64KiB"), 64 * kKiB);
  EXPECT_EQ(parse_bytes("2m"), 2 * kMiB);
  EXPECT_EQ(parse_bytes("1GiB"), kGiB);
  EXPECT_EQ(parse_bytes("100 b"), 100u);
  EXPECT_EQ(parse_bytes(""), 0u);
  EXPECT_EQ(parse_bytes("abc"), 0u);
  EXPECT_EQ(parse_bytes("12x"), 0u);
}

TEST(BytesTest, AlignUp) {
  EXPECT_EQ(align_up(0, 8), 0u);
  EXPECT_EQ(align_up(1, 8), 8u);
  EXPECT_EQ(align_up(8, 8), 8u);
  EXPECT_EQ(align_up(9, 8), 16u);
  EXPECT_EQ(align_up(4095, 4096), 4096u);
}

TEST(BytesTest, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
}

}  // namespace
}  // namespace damkit
