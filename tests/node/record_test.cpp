// The three wire records: encode, length, key, value and tag at the
// boundary sizes (an empty key and value, and a key at the u16 limit), the
// key-limit check engines run before encoding, and the encoders' CHECK.
#include "node/record.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.h"

namespace damkit::node {
namespace {

std::string_view as_view(const std::vector<uint8_t>& bytes) {
  return std::string_view(reinterpret_cast<const char*>(bytes.data()),
                          bytes.size());
}

std::string long_key() { return std::string(kMaxKeyBytes, 'k'); }

TEST(RecordTest, KeyLimitIsTheU16Maximum) {
  EXPECT_EQ(kMaxKeyBytes, 65535u);
  EXPECT_TRUE(check_key_size(long_key()).ok());
  EXPECT_TRUE(check_key_size("").ok());
  const Status too_long = check_key_size(std::string(kMaxKeyBytes + 1, 'k'));
  EXPECT_EQ(too_long.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(too_long.message().find("65536"), std::string::npos);
}

TEST(RecordTest, KvRecordEmptyKeyAndValue) {
  std::vector<uint8_t> rec(KvRecord::encoded_size(0, 0));
  ASSERT_EQ(rec.size(), KvRecord::kHeaderBytes);
  KvRecord::encode(rec.data(), "", "");
  EXPECT_EQ(rec, (std::vector<uint8_t>{0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(KvRecord::length(rec.data()), 6u);
  EXPECT_EQ(KvRecord::key(as_view(rec)), "");
  EXPECT_EQ(KvRecord::value(as_view(rec)), "");
}

TEST(RecordTest, KvRecordAtTheKeyLimit) {
  const std::string key = long_key();
  std::vector<uint8_t> rec(KvRecord::encoded_size(key.size(), 3));
  KvRecord::encode(rec.data(), key, "val");
  EXPECT_EQ(load_u16(rec.data()), 65535u);
  EXPECT_EQ(load_u32(rec.data() + 2), 3u);
  EXPECT_EQ(KvRecord::length(rec.data()), rec.size());
  EXPECT_EQ(KvRecord::key(as_view(rec)), key);
  EXPECT_EQ(KvRecord::value(as_view(rec)), "val");
}

TEST(RecordTest, PivotRecordEmptyAndAtTheKeyLimit) {
  std::vector<uint8_t> empty(PivotRecord::encoded_size(0));
  PivotRecord::encode(empty.data(), "");
  EXPECT_EQ(empty, (std::vector<uint8_t>{0, 0}));
  EXPECT_EQ(PivotRecord::length(empty.data()), 2u);
  EXPECT_EQ(PivotRecord::key(as_view(empty)), "");

  const std::string key = long_key();
  std::vector<uint8_t> rec(PivotRecord::encoded_size(key.size()));
  PivotRecord::encode(rec.data(), key);
  EXPECT_EQ(load_u16(rec.data()), 65535u);
  EXPECT_EQ(PivotRecord::length(rec.data()), rec.size());
  EXPECT_EQ(PivotRecord::key(as_view(rec)), key);
}

TEST(RecordTest, TaggedRecordEmptyKeyAndValue) {
  std::vector<uint8_t> rec(TaggedRecord::encoded_size(0, 0));
  ASSERT_EQ(rec.size(), TaggedRecord::kHeaderBytes);
  TaggedRecord::encode(rec.data(), 1, "", "");
  EXPECT_EQ(rec, (std::vector<uint8_t>{1, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(TaggedRecord::length(rec.data()), 7u);
  EXPECT_EQ(TaggedRecord::key(as_view(rec)), "");
  EXPECT_EQ(TaggedRecord::value(as_view(rec)), "");
  const TaggedRecord::View v = TaggedRecord::view(rec.data());
  EXPECT_EQ(v.tag, 1u);
  EXPECT_EQ(v.key(), "");
  EXPECT_EQ(v.value(), "");
}

TEST(RecordTest, TaggedRecordAtTheKeyLimit) {
  const std::string key = long_key();
  std::vector<uint8_t> rec(TaggedRecord::encoded_size(key.size(), 2));
  TaggedRecord::encode(rec.data(), 0xa5, key, "xy");
  EXPECT_EQ(rec[0], 0xa5);
  EXPECT_EQ(load_u16(rec.data() + 1), 65535u);
  EXPECT_EQ(load_u32(rec.data() + 3), 2u);
  EXPECT_EQ(TaggedRecord::length(rec.data()), rec.size());
  EXPECT_EQ(TaggedRecord::key(as_view(rec)), key);
  EXPECT_EQ(TaggedRecord::value(as_view(rec)), "xy");
  const TaggedRecord::View v = TaggedRecord::view(rec.data());
  EXPECT_EQ(v.tag, 0xa5);
  EXPECT_EQ(v.key(), key);
  EXPECT_EQ(v.value(), "xy");
}

TEST(RecordDeathTest, EncodersRejectAKeyPastTheLimit) {
  const std::string key(kMaxKeyBytes + 1, 'k');
  std::vector<uint8_t> buf(TaggedRecord::encoded_size(key.size(), 0));
  EXPECT_DEATH(KvRecord::encode(buf.data(), key, ""), "kMaxKeyBytes");
  EXPECT_DEATH(PivotRecord::encode(buf.data(), key), "kMaxKeyBytes");
  EXPECT_DEATH(TaggedRecord::encode(buf.data(), 0, key, ""), "kMaxKeyBytes");
}

}  // namespace
}  // namespace damkit::node
