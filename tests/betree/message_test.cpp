#include "betree/message.h"

#include <gtest/gtest.h>

#include "kv/dictionary.h"

namespace damkit::betree {
namespace {

TEST(MessageTest, BytesAccounting) {
  const MessageView m{MessageKind::kPut, "key", "value"};
  EXPECT_EQ(m.bytes(), 1u + 2 + 4 + 3 + 5);
  EXPECT_EQ(MessageView{}.bytes(), 7u);
}

TEST(MessageTest, CounterRoundTrip) {
  for (uint64_t v : {0ULL, 1ULL, 123456789ULL, ~0ULL}) {
    EXPECT_EQ(kv::decode_counter(kv::encode_counter(v)), v);
  }
  EXPECT_EQ(kv::encode_counter(5).size(), 8u);
}

TEST(MessageTest, NonCounterValueDecodesAsZero) {
  EXPECT_EQ(kv::decode_counter("short"), 0u);
  EXPECT_EQ(kv::decode_counter("definitely longer than 8"), 0u);
}

TEST(MessageTest, ApplyPutReplaces) {
  const MessageView m{MessageKind::kPut, "k", "new"};
  EXPECT_EQ(apply_message(std::nullopt, m), "new");
  EXPECT_EQ(apply_message(std::string("old"), m), "new");
}

TEST(MessageTest, ApplyTombstoneDeletes) {
  const MessageView m{MessageKind::kTombstone, "k", ""};
  EXPECT_EQ(apply_message(std::string("old"), m), std::nullopt);
  EXPECT_EQ(apply_message(std::nullopt, m), std::nullopt);
}

TEST(MessageTest, ApplyUpsertAddsFromZero) {
  const std::string five = encode_delta(5);
  const MessageView m{MessageKind::kUpsert, "k", five};
  const auto out = apply_message(std::nullopt, m);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(kv::decode_counter(*out), 5u);
}

TEST(MessageTest, ApplyUpsertAccumulates) {
  const std::string five = encode_delta(5);
  const std::string seven = encode_delta(7);
  const MessageView m1{MessageKind::kUpsert, "k", five};
  const MessageView m2{MessageKind::kUpsert, "k", seven};
  auto state = apply_message(std::nullopt, m1);
  state = apply_message(std::move(state), m2);
  EXPECT_EQ(kv::decode_counter(*state), 12u);
}

TEST(MessageTest, ApplyUpsertNegativeDelta) {
  const std::string ten = encode_delta(10);
  const std::string minus_four = encode_delta(-4);
  const MessageView up{MessageKind::kUpsert, "k", ten};
  const MessageView down{MessageKind::kUpsert, "k", minus_four};
  auto state = apply_message(std::nullopt, up);
  state = apply_message(std::move(state), down);
  EXPECT_EQ(kv::decode_counter(*state), 6u);
}

TEST(MessageTest, UpsertAfterTombstoneStartsFresh) {
  const std::string three = encode_delta(3);
  const MessageView del{MessageKind::kTombstone, "k", ""};
  const MessageView up{MessageKind::kUpsert, "k", three};
  auto state = apply_message(std::string("junk"), del);
  state = apply_message(std::move(state), up);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(kv::decode_counter(*state), 3u);
}

TEST(MessageTest, PutAfterUpsertWins) {
  const std::string three = encode_delta(3);
  const MessageView up{MessageKind::kUpsert, "k", three};
  const MessageView put{MessageKind::kPut, "k", "explicit"};
  auto state = apply_message(std::nullopt, up);
  state = apply_message(std::move(state), put);
  EXPECT_EQ(*state, "explicit");
}

}  // namespace
}  // namespace damkit::betree
