// Node-level fuzz: random mutation scripts against both tree node types,
// checking serialization round-trips and byte-size accounting after every
// burst. Catches drift the tree-level tests would only see as a late
// CHECK failure.
#include <gtest/gtest.h>

#include "betree/betree_node.h"
#include "btree/btree_node.h"
#include "kv/slice.h"
#include "util/rng.h"

namespace damkit {
namespace {

class NodeFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(NodeFuzzTest, BeTreeLeafScript) {
  Rng rng(GetParam());
  auto leaf = betree::BeTreeNode::make_leaf();
  for (int op = 0; op < 500; ++op) {
    const uint64_t id = rng.uniform(80);
    const double dice = rng.uniform_double();
    const std::string key = kv::encode_key(id);
    std::string payload;
    betree::MessageKind kind = betree::MessageKind::kPut;
    if (dice < 0.5) {
      payload = kv::make_value(rng.next(), rng.uniform(100));
    } else if (dice < 0.75) {
      kind = betree::MessageKind::kTombstone;
    } else {
      kind = betree::MessageKind::kUpsert;
      payload = betree::encode_delta(static_cast<int64_t>(rng.uniform(9)));
    }
    leaf->leaf_apply({kind, key, payload});
    if (op % 50 == 49) {
      ASSERT_EQ(leaf->byte_size(), leaf->recomputed_byte_size()) << op;
      std::vector<uint8_t> image;
      leaf->serialize(image);
      auto back = betree::BeTreeNode::deserialize(image);
      ASSERT_EQ(back->entry_count(), leaf->entry_count()) << op;
      for (size_t i = 0; i < back->entry_count(); ++i) {
        EXPECT_EQ(back->key(i), leaf->key(i));
        EXPECT_EQ(back->value(i), leaf->value(i));
      }
    }
  }
}

TEST_P(NodeFuzzTest, BeTreeInternalBufferScript) {
  Rng rng(GetParam() * 3 + 1);
  auto node = betree::BeTreeNode::make_internal();
  node->internal_init(100);
  for (uint64_t c = 1; c <= 6; ++c) {
    node->internal_insert(c - 1, kv::encode_key(c * 1000), 100 + c);
  }
  for (int op = 0; op < 400; ++op) {
    const double dice = rng.uniform_double();
    if (dice < 0.7) {
      const std::string key = kv::encode_key(rng.uniform(7000));
      const std::string value = kv::make_value(rng.next(), rng.uniform(60));
      node->buffer_add(node->child_index(key),
                       {betree::MessageKind::kPut, key, value});
    } else if (dice < 0.85 && node->total_buffer_bytes() > 0) {
      (void)node->take_buffer(node->fullest_child());
    } else if (node->child_count() > 2) {
      node->internal_remove_child(rng.uniform(node->pivot_count()));
    }
    ASSERT_EQ(node->byte_size(), node->recomputed_byte_size()) << op;
  }
  std::vector<uint8_t> image;
  node->serialize(image);
  auto back = betree::BeTreeNode::deserialize(image);
  EXPECT_EQ(back->byte_size(), node->byte_size());
  EXPECT_EQ(back->child_count(), node->child_count());
  EXPECT_EQ(back->total_buffer_bytes(), node->total_buffer_bytes());
}

TEST_P(NodeFuzzTest, BTreeLeafScriptWithSplits) {
  Rng rng(GetParam() * 5 + 2);
  auto leaf = btree::BTreeNode::make_leaf();
  int splits = 0;
  for (int op = 0; op < 600; ++op) {
    const uint64_t id = rng.uniform(200);
    if (rng.uniform_double() < 0.7) {
      leaf->leaf_put(kv::encode_key(id), kv::make_value(rng.next(), 40));
    } else {
      leaf->leaf_erase(kv::encode_key(id));
    }
    if (leaf->byte_size() > 4096 && leaf->entry_count() >= 2) {
      auto sr = leaf->split();
      ++splits;
      // Keep churning the left half; the right must be internally valid.
      ASSERT_EQ(sr.right->byte_size(), sr.right->recomputed_byte_size());
      ASSERT_EQ(leaf->byte_size(), leaf->recomputed_byte_size());
      ASSERT_LT(kv::compare(leaf->key(leaf->entry_count() - 1),
                            sr.right->key(0)),
                0);
    }
  }
  EXPECT_GT(splits, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NodeFuzzTest,
                         testing::Values(11ULL, 22ULL, 33ULL, 44ULL),
                         [](const testing::TestParamInfo<uint64_t>& param) {
                           return "seed" + std::to_string(param.param);
                         });

}  // namespace
}  // namespace damkit
