// Known-answer images for every stored record format: the exact bytes of a
// B-tree leaf and internal node, a Bε-tree leaf and an internal node whose
// buffers hold put, tombstone and upsert messages, and one SSTable block
// read back from the device. Size checks alone would pass a field-order
// swap that still round-trips; these literals pin the wire layout itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "betree/betree_node.h"
#include "betree/message.h"
#include "blockdev/byte_arena.h"
#include "btree/btree_node.h"
#include "lsm/sstable.h"
#include "sim/hdd.h"
#include "util/bytes.h"

namespace damkit {
namespace {

std::string hex(const std::vector<uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

TEST(WireBytesTest, BTreeLeaf) {
  auto leaf = btree::BTreeNode::make_leaf();
  leaf->leaf_put("kb", "two");
  leaf->leaf_put("ka", "1");
  leaf->leaf_put("", "");
  leaf->set_next_leaf(0x0102);
  std::vector<uint8_t> image;
  leaf->serialize(image);
  EXPECT_EQ(hex(image),
            "444e5442"                  // magic "BTND"
            "01"                        // leaf
            "03000000"                  // 3 entries
            "0201000000000000"          // next leaf
            "000000000000"              // [u16 0][u32 0]: "" -> ""
            "0200010000006b6131"        // [u16 2][u32 1]"ka""1"
            "0200030000006b6274776f");  // [u16 2][u32 3]"kb""two"
}

TEST(WireBytesTest, BTreeInternal) {
  auto node = btree::BTreeNode::make_internal();
  node->internal_init(3);
  node->internal_insert(0, "m", 4);
  node->internal_insert(1, "tt", 0x0506);
  std::vector<uint8_t> image;
  node->serialize(image);
  EXPECT_EQ(hex(image),
            "444e5442"          // magic "BTND"
            "00"                // internal
            "03000000"          // 3 children
            "ffffffffffffffff"  // next leaf: none
            "0300000000000000"  // child 3
            "0400000000000000"  // child 4
            "0605000000000000"  // child 0x0506
            "01006d"            // [u16 1]"m"
            "02007474");        // [u16 2]"tt"
}

TEST(WireBytesTest, BeTreeLeaf) {
  auto leaf = betree::BeTreeNode::make_leaf();
  leaf->leaf_apply({betree::MessageKind::kPut, "kb", "two"});
  leaf->leaf_apply({betree::MessageKind::kPut, "ka", "1"});
  leaf->leaf_apply(
      {betree::MessageKind::kUpsert, "kc", betree::encode_delta(3)});
  std::vector<uint8_t> image;
  leaf->serialize(image);
  EXPECT_EQ(hex(image),
            "4e544542"                            // magic "BETN"
            "01"                                  // leaf
            "03000000"                            // 3 entries
            "0200010000006b6131"                  // [u16 2][u32 1]"ka""1"
            "0200030000006b6274776f"              // [u16 2][u32 3]"kb""two"
            "0200080000006b630300000000000000");  // [u16 2][u32 8]"kc" 3
}

TEST(WireBytesTest, BeTreeInternalWithMessages) {
  auto node = betree::BeTreeNode::make_internal();
  node->internal_init(10);
  node->internal_insert(0, "m", 11);
  node->buffer_add(0, {betree::MessageKind::kPut, "c", "v"});
  node->buffer_add(0, {betree::MessageKind::kTombstone, "d", ""});
  node->buffer_add(1, {betree::MessageKind::kUpsert, "p",
                       betree::encode_delta(-2)});
  std::vector<uint8_t> image;
  node->serialize(image);
  EXPECT_EQ(hex(image),
            "4e544542"            // magic "BETN"
            "00"                  // internal
            "02000000"            // 2 children
            "0a00000000000000"    // child 10
            "02000000"            // its 2 messages:
            "000100010000006376"  // [put][u16 1][u32 1]"c""v"
            "0101000000000064"    // [tombstone][u16 1][u32 0]"d"
            "0b00000000000000"    // child 11
            "01000000"            // its 1 message:
            "0201000800000070"    // [upsert][u16 1][u32 8]"p"
            "feffffffffffffff"    // delta -2
            "01006d");            // pivot [u16 1]"m"
}

TEST(WireBytesTest, SSTableBlockReadBackFromTheDevice) {
  sim::HddConfig cfg;
  cfg.capacity_bytes = 64 * kMiB;
  sim::HddDevice dev(cfg);
  sim::IoContext io(dev);
  blockdev::ByteArena arena(dev, 0);  // the first table lands at offset 0
  lsm::SSTableBuilder builder(dev, io, arena, /*block_bytes=*/256,
                              /*sequence=*/1, /*codec=*/nullptr);
  builder.add(lsm::EntryView{"a", "1", false});
  builder.add(lsm::EntryView{"bb", "", true});
  builder.add(lsm::EntryView{"c", "xyz", false});
  StatusOr<lsm::SSTableRef> table = builder.try_finish();
  ASSERT_TRUE(table.ok()) << table.status().to_string();
  ASSERT_EQ((*table)->block_count(), 1u);
  std::vector<uint8_t> block((*table)->data_bytes());
  dev.read_bytes(0, block);
  EXPECT_EQ(hex(block),
            "000100010000006131"        // [live][u16 1][u32 1]"a""1"
            "010200000000006262"        // [tombstone][u16 2][u32 0]"bb"
            "000100030000006378797a");  // [live][u16 1][u32 3]"c""xyz"
}

}  // namespace
}  // namespace damkit
