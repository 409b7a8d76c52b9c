#include "betree/message.h"

#include <gtest/gtest.h>

#include "kv/dictionary.h"

namespace damkit::betree {
namespace {

TEST(MessageTest, BytesAccounting) {
  Message m{MessageKind::kPut, "key", "value"};
  EXPECT_EQ(m.bytes(), 1u + 2 + 4 + 3 + 5);
  EXPECT_EQ(Message::bytes_for(0, 0), 7u);
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
  const Message m{MessageKind::kPut, "k", "new"};
  EXPECT_EQ(apply_message(std::nullopt, m.view()), "new");
  EXPECT_EQ(apply_message(std::string("old"), m.view()), "new");
}

TEST(MessageTest, ApplyTombstoneDeletes) {
  const Message m{MessageKind::kTombstone, "k", ""};
  EXPECT_EQ(apply_message(std::string("old"), m.view()), std::nullopt);
  EXPECT_EQ(apply_message(std::nullopt, m.view()), std::nullopt);
}

TEST(MessageTest, ApplyUpsertAddsFromZero) {
  const Message m{MessageKind::kUpsert, "k", encode_delta(5)};
  const auto out = apply_message(std::nullopt, m.view());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(kv::decode_counter(*out), 5u);
}

TEST(MessageTest, ApplyUpsertAccumulates) {
  const Message m1{MessageKind::kUpsert, "k", encode_delta(5)};
  const Message m2{MessageKind::kUpsert, "k", encode_delta(7)};
  auto state = apply_message(std::nullopt, m1.view());
  state = apply_message(std::move(state), m2.view());
  EXPECT_EQ(kv::decode_counter(*state), 12u);
}

TEST(MessageTest, ApplyUpsertNegativeDelta) {
  const Message up{MessageKind::kUpsert, "k", encode_delta(10)};
  const Message down{MessageKind::kUpsert, "k", encode_delta(-4)};
  auto state = apply_message(std::nullopt, up.view());
  state = apply_message(std::move(state), down.view());
  EXPECT_EQ(kv::decode_counter(*state), 6u);
}

TEST(MessageTest, UpsertAfterTombstoneStartsFresh) {
  const Message del{MessageKind::kTombstone, "k", ""};
  const Message up{MessageKind::kUpsert, "k", encode_delta(3)};
  auto state = apply_message(std::string("junk"), del.view());
  state = apply_message(std::move(state), up.view());
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(kv::decode_counter(*state), 3u);
}

TEST(MessageTest, PutAfterUpsertWins) {
  const Message up{MessageKind::kUpsert, "k", encode_delta(3)};
  const Message put{MessageKind::kPut, "k", "explicit"};
  auto state = apply_message(std::nullopt, up.view());
  state = apply_message(std::move(state), put.view());
  EXPECT_EQ(*state, "explicit");
}

}  // namespace
}  // namespace damkit::betree
