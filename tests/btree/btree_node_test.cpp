#include "btree/btree_node.h"

#include <gtest/gtest.h>

#include <vector>

#include "kv/slice.h"
#include "util/bytes.h"

namespace damkit::btree {
namespace {

TEST(BTreeNodeTest, LeafPutKeepsSortedOrder) {
  auto leaf = BTreeNode::make_leaf();
  EXPECT_TRUE(leaf->leaf_put("b", "2"));
  EXPECT_TRUE(leaf->leaf_put("a", "1"));
  EXPECT_TRUE(leaf->leaf_put("c", "3"));
  ASSERT_EQ(leaf->entry_count(), 3u);
  EXPECT_EQ(leaf->key(0), "a");
  EXPECT_EQ(leaf->key(1), "b");
  EXPECT_EQ(leaf->key(2), "c");
  EXPECT_EQ(leaf->value(1), "2");
}

TEST(BTreeNodeTest, LeafPutOverwrites) {
  auto leaf = BTreeNode::make_leaf();
  EXPECT_TRUE(leaf->leaf_put("k", "old"));
  EXPECT_FALSE(leaf->leaf_put("k", "newer"));
  EXPECT_EQ(leaf->entry_count(), 1u);
  EXPECT_EQ(leaf->value(0), "newer");
  EXPECT_EQ(leaf->byte_size(), leaf->recomputed_byte_size());
}

TEST(BTreeNodeTest, LeafEraseTracksBytes) {
  auto leaf = BTreeNode::make_leaf();
  leaf->leaf_put("a", "111");
  leaf->leaf_put("b", "222");
  const uint64_t before = leaf->byte_size();
  EXPECT_TRUE(leaf->leaf_erase("a"));
  EXPECT_FALSE(leaf->leaf_erase("zzz"));
  EXPECT_LT(leaf->byte_size(), before);
  EXPECT_EQ(leaf->byte_size(), leaf->recomputed_byte_size());
}

TEST(BTreeNodeTest, LowerBoundSemantics) {
  auto leaf = BTreeNode::make_leaf();
  leaf->leaf_put("b", "1");
  leaf->leaf_put("d", "2");
  EXPECT_EQ(leaf->lower_bound("a"), 0u);
  EXPECT_EQ(leaf->lower_bound("b"), 0u);
  EXPECT_EQ(leaf->lower_bound("c"), 1u);
  EXPECT_EQ(leaf->lower_bound("d"), 1u);
  EXPECT_EQ(leaf->lower_bound("e"), 2u);
  EXPECT_TRUE(leaf->key_equals(0, "b"));
  EXPECT_FALSE(leaf->key_equals(0, "c"));
  EXPECT_FALSE(leaf->key_equals(9, "b"));
}

TEST(BTreeNodeTest, InternalChildIndexRouting) {
  auto node = BTreeNode::make_internal();
  node->internal_init(10);
  node->internal_insert(0, "m", 20);  // children: [10, 20], pivot "m"
  EXPECT_EQ(node->child_index("a"), 0u);
  EXPECT_EQ(node->child_index("m"), 1u);  // pivot itself goes right
  EXPECT_EQ(node->child_index("z"), 1u);
  node->internal_insert(1, "t", 30);
  EXPECT_EQ(node->child_index("p"), 1u);
  EXPECT_EQ(node->child_index("u"), 2u);
}

TEST(BTreeNodeTest, SerializeDeserializeLeaf) {
  auto leaf = BTreeNode::make_leaf();
  leaf->leaf_put("alpha", "one");
  leaf->leaf_put("beta", std::string(300, 'x'));
  leaf->set_next_leaf(77);
  std::vector<uint8_t> image;
  leaf->serialize(image);
  EXPECT_EQ(image.size(), leaf->byte_size());
  auto back = BTreeNode::deserialize(image);
  ASSERT_TRUE(back->is_leaf());
  EXPECT_EQ(back->entry_count(), 2u);
  EXPECT_EQ(back->key(0), "alpha");
  EXPECT_EQ(back->value(1), std::string(300, 'x'));
  EXPECT_EQ(back->next_leaf(), 77u);
  EXPECT_EQ(back->byte_size(), leaf->byte_size());
}

TEST(BTreeNodeDeathTest, OverstatedCountStopsAtTheImageEnd) {
  // A one-entry leaf whose count field claims two, padded with three zero
  // bytes: the phantom record's 6-byte header straddles the end of an
  // exactly-sized image, so the parse must abort before reading it.
  auto leaf = BTreeNode::make_leaf();
  leaf->leaf_put("k", "v");
  std::vector<uint8_t> image;
  leaf->serialize(image);
  store_u32(image.data() + 5, 2);  // count follows magic u32 + flags u8
  image.resize(image.size() + 3);
  const std::vector<uint8_t> exact(image.begin(), image.end());
  EXPECT_DEATH((void)BTreeNode::deserialize(exact), "record header overruns");
}

TEST(BTreeNodeTest, SerializeDeserializeInternal) {
  auto node = BTreeNode::make_internal();
  node->internal_init(5);
  node->internal_insert(0, "k1", 6);
  node->internal_insert(1, "k2", 7);
  std::vector<uint8_t> image;
  node->serialize(image);
  auto back = BTreeNode::deserialize(image);
  ASSERT_FALSE(back->is_leaf());
  EXPECT_EQ(back->child_count(), 3u);
  EXPECT_EQ(back->child(0), 5u);
  EXPECT_EQ(back->child(2), 7u);
  EXPECT_EQ(back->pivot(0), "k1");
  EXPECT_EQ(back->byte_size(), node->byte_size());
}

TEST(BTreeNodeTest, LeafSplitBalancedAndChained) {
  auto leaf = BTreeNode::make_leaf();
  for (int i = 0; i < 100; ++i) {
    leaf->leaf_put(kv::encode_key(static_cast<uint64_t>(i)), "v");
  }
  leaf->set_next_leaf(42);
  const uint64_t total = leaf->byte_size();
  auto split = leaf->split();
  EXPECT_EQ(split.separator, split.right->key(0));
  EXPECT_EQ(split.right->next_leaf(), 42u);
  // Roughly balanced by bytes.
  EXPECT_NEAR(static_cast<double>(leaf->byte_size()),
              static_cast<double>(split.right->byte_size()),
              static_cast<double>(total) * 0.2);
  // Order preserved across the cut.
  EXPECT_LT(kv::compare(leaf->key(leaf->entry_count() - 1),
                        split.right->key(0)),
            0);
  EXPECT_EQ(leaf->byte_size(), leaf->recomputed_byte_size());
  EXPECT_EQ(split.right->byte_size(), split.right->recomputed_byte_size());
}

TEST(BTreeNodeTest, InternalSplitMovesMedianUp) {
  auto node = BTreeNode::make_internal();
  node->internal_init(0);
  for (int i = 1; i <= 20; ++i) {
    node->internal_insert(static_cast<size_t>(i - 1),
                          kv::encode_key(static_cast<uint64_t>(i * 10)),
                          static_cast<uint64_t>(i));
  }
  const size_t total_children = node->child_count();
  auto split = node->split();
  // The separator is in neither half.
  for (size_t i = 0; i < node->pivot_count(); ++i) {
    EXPECT_NE(node->pivot(i), split.separator);
  }
  for (size_t i = 0; i < split.right->pivot_count(); ++i) {
    EXPECT_NE(split.right->pivot(i), split.separator);
  }
  EXPECT_EQ(node->child_count() + split.right->child_count(), total_children);
  EXPECT_EQ(node->byte_size(), node->recomputed_byte_size());
  EXPECT_EQ(split.right->byte_size(), split.right->recomputed_byte_size());
}

TEST(BTreeNodeTest, MergeLeavesRestoresAll) {
  auto left = BTreeNode::make_leaf();
  auto right = BTreeNode::make_leaf();
  left->leaf_put("a", "1");
  right->leaf_put("m", "2");
  right->leaf_put("z", "3");
  right->set_next_leaf(9);
  left->merge_from_right(*right, "m");
  EXPECT_EQ(left->entry_count(), 3u);
  EXPECT_EQ(left->next_leaf(), 9u);
  EXPECT_EQ(left->byte_size(), left->recomputed_byte_size());
  EXPECT_EQ(right->entry_count(), 0u);
}

TEST(BTreeNodeTest, MergeInternalsKeepsSeparator) {
  auto left = BTreeNode::make_internal();
  left->internal_init(1);
  left->internal_insert(0, "b", 2);
  auto right = BTreeNode::make_internal();
  right->internal_init(3);
  right->internal_insert(0, "x", 4);
  left->merge_from_right(*right, "m");
  EXPECT_EQ(left->child_count(), 4u);
  EXPECT_EQ(left->pivot(1), "m");
  EXPECT_EQ(left->byte_size(), left->recomputed_byte_size());
}

TEST(BTreeNodeTest, BorrowBalancesLeafBytes) {
  auto left = BTreeNode::make_leaf();
  auto right = BTreeNode::make_leaf();
  left->leaf_put("a", "1");
  for (int i = 0; i < 50; ++i) {
    right->leaf_put("m" + kv::encode_key(static_cast<uint64_t>(i)),
                    std::string(20, 'v'));
  }
  const std::string sep(right->key(0));
  const std::string new_sep = left->borrow_balance(*right, sep);
  EXPECT_GT(left->entry_count(), 1u);
  EXPECT_EQ(new_sep, right->key(0));
  EXPECT_LT(kv::compare(left->key(left->entry_count() - 1), new_sep), 0);
  EXPECT_EQ(left->byte_size(), left->recomputed_byte_size());
  EXPECT_EQ(right->byte_size(), right->recomputed_byte_size());
}

}  // namespace
}  // namespace damkit::btree
