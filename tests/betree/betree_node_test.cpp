#include "betree/betree_node.h"

#include <gtest/gtest.h>

#include "kv/dictionary.h"
#include "kv/slice.h"

namespace damkit::betree {
namespace {

MessageView put_msg(std::string_view k, std::string_view v) {
  return {MessageKind::kPut, k, v};
}

TEST(BeTreeNodeTest, LeafApplyPutInsertOverwrite) {
  auto leaf = BeTreeNode::make_leaf();
  leaf->leaf_apply(put_msg("b", "1"));
  leaf->leaf_apply(put_msg("a", "2"));
  leaf->leaf_apply(put_msg("b", "3"));
  ASSERT_EQ(leaf->entry_count(), 2u);
  EXPECT_EQ(leaf->key(0), "a");
  EXPECT_EQ(leaf->value(1), "3");
  EXPECT_EQ(leaf->byte_size(), leaf->recomputed_byte_size());
}

TEST(BeTreeNodeTest, LeafApplyTombstoneRemoves) {
  auto leaf = BeTreeNode::make_leaf();
  leaf->leaf_apply(put_msg("a", "1"));
  leaf->leaf_apply(MessageView{MessageKind::kTombstone, "a", ""});
  EXPECT_EQ(leaf->entry_count(), 0u);
  // Tombstone for an absent key is a no-op.
  leaf->leaf_apply(MessageView{MessageKind::kTombstone, "zzz", ""});
  EXPECT_EQ(leaf->entry_count(), 0u);
  EXPECT_EQ(leaf->byte_size(), leaf->recomputed_byte_size());
}

TEST(BeTreeNodeTest, LeafApplyUpsertCreatesAndAdds) {
  auto leaf = BeTreeNode::make_leaf();
  leaf->leaf_apply(MessageView{MessageKind::kUpsert, "c", encode_delta(4)});
  leaf->leaf_apply(MessageView{MessageKind::kUpsert, "c", encode_delta(6)});
  ASSERT_EQ(leaf->entry_count(), 1u);
  EXPECT_EQ(kv::decode_counter(leaf->value(0)), 10u);
}

TEST(BeTreeNodeTest, BufferAddTakeAccounting) {
  auto node = BeTreeNode::make_internal();
  node->internal_init(1);
  node->internal_insert(0, "m", 2);
  const uint64_t base = node->byte_size();
  node->buffer_add(0, put_msg("a", "xyz"));
  node->buffer_add(0, put_msg("b", "q"));
  node->buffer_add(1, put_msg("z", "w"));
  EXPECT_EQ(node->buffer_count(0), 2u);
  EXPECT_GT(node->buffer_bytes(0), node->buffer_bytes(1));
  EXPECT_EQ(node->total_buffer_bytes(),
            node->buffer_bytes(0) + node->buffer_bytes(1));
  EXPECT_EQ(node->byte_size(), base + node->total_buffer_bytes());

  const MsgSegment msgs = node->take_buffer(0);
  ASSERT_EQ(msgs.count, 2u);
  EXPECT_EQ(msgs.range()[0].key, "a");  // arrival order preserved
  EXPECT_EQ(msgs.range()[1].key, "b");
  EXPECT_EQ(node->buffer_bytes(0), 0u);
  EXPECT_EQ(node->byte_size(), node->recomputed_byte_size());
}

TEST(BeTreeNodeTest, FullestChild) {
  auto node = BeTreeNode::make_internal();
  node->internal_init(1);
  node->internal_insert(0, "g", 2);
  node->internal_insert(1, "p", 3);
  node->buffer_add(1, put_msg("h", std::string(100, 'x')));
  node->buffer_add(2, put_msg("q", "small"));
  EXPECT_EQ(node->fullest_child(), 1u);
}

TEST(BeTreeNodeTest, CollectForKeyInOrder) {
  auto node = BeTreeNode::make_internal();
  node->internal_init(1);
  node->buffer_add(0, put_msg("k", "first"));
  node->buffer_add(0, put_msg("other", "x"));
  node->buffer_add(0, MessageView{MessageKind::kTombstone, "k", ""});
  MsgSegment out;
  node->collect_for_key(0, "k", &out);
  ASSERT_EQ(out.count, 2u);
  EXPECT_EQ(out.range()[0].payload, "first");
  EXPECT_EQ(out.range()[1].kind, MessageKind::kTombstone);
}

TEST(BeTreeNodeTest, InternalRemoveChildFoldsBuffer) {
  auto node = BeTreeNode::make_internal();
  node->internal_init(1);
  node->internal_insert(0, "m", 2);
  node->buffer_add(0, put_msg("a", "1"));
  node->buffer_add(1, put_msg("x", "2"));
  const uint64_t total = node->total_buffer_bytes();
  node->internal_remove_child(0);
  EXPECT_EQ(node->child_count(), 1u);
  EXPECT_EQ(node->buffer_count(0), 2u);  // both messages retained
  EXPECT_EQ(node->total_buffer_bytes(), total);
  EXPECT_EQ(node->byte_size(), node->recomputed_byte_size());
}

TEST(BeTreeNodeTest, SerializeDeserializeInternalWithBuffers) {
  auto node = BeTreeNode::make_internal();
  node->internal_init(10);
  node->internal_insert(0, "mid", 20);
  node->buffer_add(0, put_msg("a", "v1"));
  node->buffer_add(1, MessageView{MessageKind::kUpsert, "x", encode_delta(3)});
  node->buffer_add(1, MessageView{MessageKind::kTombstone, "y", ""});
  std::vector<uint8_t> image;
  node->serialize(image);
  EXPECT_EQ(image.size(), node->byte_size());
  auto back = BeTreeNode::deserialize(image);
  ASSERT_FALSE(back->is_leaf());
  EXPECT_EQ(back->child_count(), 2u);
  EXPECT_EQ(back->pivot(0), "mid");
  EXPECT_EQ(back->buffer_count(0), 1u);
  EXPECT_EQ(back->buffer_count(1), 2u);
  EXPECT_EQ(back->buffer(1)[0].kind, MessageKind::kUpsert);
  EXPECT_EQ(back->buffer(1)[1].kind, MessageKind::kTombstone);
  EXPECT_EQ(back->byte_size(), node->byte_size());
  EXPECT_EQ(back->byte_size(), back->recomputed_byte_size());
}

TEST(BeTreeNodeTest, SerializeDeserializeLeaf) {
  auto leaf = BeTreeNode::make_leaf();
  leaf->leaf_apply(put_msg("k1", "v1"));
  leaf->leaf_apply(put_msg("k2", std::string(500, 'z')));
  std::vector<uint8_t> image;
  leaf->serialize(image);
  auto back = BeTreeNode::deserialize(image);
  ASSERT_TRUE(back->is_leaf());
  EXPECT_EQ(back->entry_count(), 2u);
  EXPECT_EQ(back->value(1), std::string(500, 'z'));
  EXPECT_EQ(back->byte_size(), leaf->byte_size());
}

TEST(BeTreeNodeTest, LeafSplitBalanced) {
  auto leaf = BeTreeNode::make_leaf();
  for (uint64_t i = 0; i < 100; ++i) {
    leaf->leaf_apply(put_msg(kv::encode_key(i), "some-value"));
  }
  const uint64_t total = leaf->byte_size();
  auto sr = leaf->split();
  EXPECT_EQ(sr.separator, sr.right->key(0));
  EXPECT_NEAR(static_cast<double>(leaf->byte_size()),
              static_cast<double>(sr.right->byte_size()), total * 0.2);
  EXPECT_EQ(leaf->byte_size(), leaf->recomputed_byte_size());
  EXPECT_EQ(sr.right->byte_size(), sr.right->recomputed_byte_size());
}

TEST(BeTreeNodeTest, InternalSplitPartitionsBuffersByChild) {
  auto node = BeTreeNode::make_internal();
  node->internal_init(0);
  for (uint64_t i = 1; i <= 10; ++i) {
    node->internal_insert(i - 1, kv::encode_key(i * 100), i);
  }
  // Load buffers: child i gets i messages.
  for (size_t c = 0; c < node->child_count(); ++c) {
    for (size_t j = 0; j <= c; ++j) {
      node->buffer_add(
          c, put_msg(kv::encode_key(c * 100 + j + 1), "payload"));
    }
  }
  const uint64_t total_msgs_before = [&] {
    uint64_t n = 0;
    for (size_t c = 0; c < node->child_count(); ++c) n += node->buffer_count(c);
    return n;
  }();

  auto sr = node->split();
  uint64_t total_after = 0;
  for (size_t c = 0; c < node->child_count(); ++c) {
    total_after += node->buffer_count(c);
    for (const MessageView m : node->buffer(c)) {
      EXPECT_LT(kv::compare(m.key, sr.separator), 0);
    }
  }
  for (size_t c = 0; c < sr.right->child_count(); ++c) {
    total_after += sr.right->buffer_count(c);
    for (const MessageView m : sr.right->buffer(c)) {
      EXPECT_GE(kv::compare(m.key, sr.separator), 0);
    }
  }
  EXPECT_EQ(total_after, total_msgs_before);
  EXPECT_EQ(node->byte_size(), node->recomputed_byte_size());
  EXPECT_EQ(sr.right->byte_size(), sr.right->recomputed_byte_size());
  EXPECT_EQ(node->child_count() + sr.right->child_count(), 11u);
}

TEST(BeTreeNodeTest, LeafMergeFromRight) {
  auto left = BeTreeNode::make_leaf();
  auto right = BeTreeNode::make_leaf();
  left->leaf_apply(put_msg("a", "1"));
  right->leaf_apply(put_msg("m", "2"));
  left->leaf_merge_from_right(*right);
  EXPECT_EQ(left->entry_count(), 2u);
  EXPECT_EQ(right->entry_count(), 0u);
  EXPECT_EQ(left->byte_size(), left->recomputed_byte_size());
}

}  // namespace
}  // namespace damkit::betree
