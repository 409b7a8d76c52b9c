#include "blockdev/block_device.h"

#include <gtest/gtest.h>

#include <cstring>

#include "sim/hdd.h"
#include "util/bytes.h"

namespace damkit::blockdev {
namespace {

class NodeStoreTest : public testing::Test {
 protected:
  NodeStoreTest() : dev_(make_config()), io_(dev_) {}

  static sim::HddConfig make_config() {
    sim::HddConfig cfg;
    cfg.capacity_bytes = 1ULL * kGiB;
    return cfg;
  }

  sim::HddDevice dev_;
  sim::IoContext io_;
};

TEST_F(NodeStoreTest, WriteThenReadRoundTrip) {
  NodeStore store(dev_, io_, 64 * kKiB);
  const uint64_t id = store.allocate();
  ByteBuffer image(1000);
  for (size_t i = 0; i < image.size(); ++i) {
    image[i] = static_cast<uint8_t>(i * 3);
  }
  const ByteBuffer written = image;
  ASSERT_TRUE(store.try_write_node(id, image).ok());
  EXPECT_EQ(image.size(), 64u * kKiB);  // padded in place
  ByteBuffer back;
  ASSERT_TRUE(store.try_read_node(id, back).ok());
  ASSERT_EQ(back.size(), 64u * kKiB);  // whole extent
  for (size_t i = 0; i < written.size(); ++i) EXPECT_EQ(back[i], written[i]);
  for (size_t i = written.size(); i < back.size(); ++i) EXPECT_EQ(back[i], 0);
}

TEST_F(NodeStoreTest, WholeNodeIoCharged) {
  NodeStore store(dev_, io_, 64 * kKiB);
  const uint64_t id = store.allocate();
  ByteBuffer image(10, 0);
  ASSERT_TRUE(store.try_write_node(id, image).ok());
  EXPECT_EQ(dev_.stats().bytes_written, 64u * kKiB);  // padded write
  ByteBuffer buf;
  ASSERT_TRUE(store.try_read_node(id, buf).ok());
  EXPECT_EQ(dev_.stats().bytes_read, 64u * kKiB);
}

TEST_F(NodeStoreTest, TouchReadAdvancesClockWithoutPayload) {
  NodeStore store(dev_, io_, 64 * kKiB);
  const uint64_t id = store.allocate();
  const sim::SimTime before = io_.now();
  ASSERT_TRUE(store.try_touch_read(id, 0, 4096).ok());
  EXPECT_GT(io_.now(), before);
  EXPECT_EQ(dev_.stats().bytes_read, 4096u);
}

TEST_F(NodeStoreTest, PeekNodeIsFreeOfTimingCharges) {
  NodeStore store(dev_, io_, 64 * kKiB);
  const uint64_t id = store.allocate();
  ByteBuffer image(16, 9);
  ASSERT_TRUE(store.try_write_node(id, image).ok());
  const sim::SimTime before = io_.now();
  dev_.clear_stats();
  ByteBuffer buf;
  ASSERT_TRUE(store.peek_node(id, buf).ok());
  EXPECT_EQ(io_.now(), before);
  EXPECT_EQ(dev_.stats().reads, 0u);
  EXPECT_EQ(buf[0], 9);
}

TEST_F(NodeStoreTest, DistinctNodesDoNotAlias) {
  NodeStore store(dev_, io_, 4 * kKiB);
  const uint64_t a = store.allocate();
  const uint64_t b = store.allocate();
  ByteBuffer ia(10, 0xaa);
  ByteBuffer ib(10, 0xbb);
  ASSERT_TRUE(store.try_write_node(a, ia).ok());
  ASSERT_TRUE(store.try_write_node(b, ib).ok());
  ByteBuffer buf;
  ASSERT_TRUE(store.try_read_node(a, buf).ok());
  EXPECT_EQ(buf[0], 0xaa);
  ASSERT_TRUE(store.try_read_node(b, buf).ok());
  EXPECT_EQ(buf[0], 0xbb);
}

TEST_F(NodeStoreTest, FreeAndReuse) {
  NodeStore store(dev_, io_, 4 * kKiB);
  const uint64_t a = store.allocate();
  EXPECT_EQ(store.nodes_in_use(), 1u);
  store.free(a);
  EXPECT_EQ(store.nodes_in_use(), 0u);
  EXPECT_EQ(store.allocate(), a);
}

TEST_F(NodeStoreTest, BaseOffsetRespected) {
  NodeStore store(dev_, io_, 4 * kKiB, 1 * kMiB);
  const uint64_t id = store.allocate();
  ByteBuffer image(4, 0x11);
  ASSERT_TRUE(store.try_write_node(id, image).ok());
  // The byte must land at base offset in the underlying device.
  std::vector<uint8_t> raw(1);
  dev_.read_bytes(1 * kMiB, raw);
  EXPECT_EQ(raw[0], 0x11);
}

TEST_F(NodeStoreTest, ReadNodesMatchesSerialPayloads) {
  NodeStore store(dev_, io_, 4 * kKiB);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    const uint64_t id = store.allocate();
    ByteBuffer image(16, static_cast<uint8_t>(i));
    ASSERT_TRUE(store.try_write_node(id, image).ok());
    ids.push_back(id);
  }
  dev_.clear_stats();
  std::vector<ByteBuffer> images;
  ASSERT_TRUE(store.try_read_nodes(ids, images).ok());
  ASSERT_EQ(images.size(), 4u);
  for (size_t i = 0; i < images.size(); ++i) {
    ASSERT_EQ(images[i].size(), 4u * kKiB);
    EXPECT_EQ(images[i][0], static_cast<uint8_t>(i));
  }
  // Whole-extent charge for every node in the batch.
  EXPECT_EQ(dev_.stats().bytes_read, 4u * 4 * kKiB);
  EXPECT_EQ(dev_.stats().reads, 4u);
}

TEST_F(NodeStoreTest, WriteNodesRoundTripsAndPads) {
  NodeStore store(dev_, io_, 4 * kKiB);
  const uint64_t a = store.allocate();
  const uint64_t b = store.allocate();
  ByteBuffer ia(10, 0xaa);
  ByteBuffer ib(20, 0xbb);
  const NodeStore::NodeImage writes[] = {{a, &ia}, {b, &ib}};
  ASSERT_TRUE(store.try_write_nodes(writes).ok());
  EXPECT_EQ(dev_.stats().bytes_written, 2u * 4 * kKiB);  // padded extents
  ByteBuffer back;
  ASSERT_TRUE(store.try_read_node(a, back).ok());
  EXPECT_EQ(back[0], 0xaa);
  EXPECT_EQ(back[10], 0);  // zero-padded past the image
  ASSERT_TRUE(store.try_read_node(b, back).ok());
  EXPECT_EQ(back[19], 0xbb);
}

// A reused IO buffer keeps a longer earlier image's bytes in its capacity
// (ByteBuffer does not zero on resize), so a shorter image written through
// it must still read back as zeros past its end.
TEST_F(NodeStoreTest, ReusedBufferPadsShorterImageWithZeros) {
  NodeStore store(dev_, io_, 4 * kKiB);
  const uint64_t a = store.allocate();
  const uint64_t b = store.allocate();
  ByteBuffer buf(3000, 0xab);
  ASSERT_TRUE(store.try_write_node(a, buf).ok());
  buf.clear();
  buf.resize(100);
  std::memset(buf.data(), 0xcd, buf.size());
  ASSERT_TRUE(store.try_write_node(b, buf).ok());
  ByteBuffer back;
  ASSERT_TRUE(store.try_read_node(b, back).ok());
  for (size_t i = 0; i < 100; ++i) ASSERT_EQ(back[i], 0xcd) << i;
  for (size_t i = 100; i < back.size(); ++i) ASSERT_EQ(back[i], 0) << i;
}

TEST_F(NodeStoreTest, BatchedReusedBuffersPadShorterImagesWithZeros) {
  NodeStore store(dev_, io_, 4 * kKiB);
  const uint64_t a = store.allocate();
  const uint64_t b = store.allocate();
  ByteBuffer ia(4000, 0xab);
  ByteBuffer ib(2500, 0xab);
  const NodeStore::NodeImage writes[] = {{a, &ia}, {b, &ib}};
  ASSERT_TRUE(store.try_write_nodes(writes).ok());
  ia.clear();
  ia.resize(10, 0x11);
  ib.clear();
  ib.resize(20, 0x22);
  ASSERT_TRUE(store.try_write_nodes(writes).ok());
  ByteBuffer back;
  ASSERT_TRUE(store.try_read_node(a, back).ok());
  EXPECT_EQ(back[9], 0x11);
  for (size_t i = 10; i < back.size(); ++i) ASSERT_EQ(back[i], 0) << i;
  ASSERT_TRUE(store.try_read_node(b, back).ok());
  EXPECT_EQ(back[19], 0x22);
  for (size_t i = 20; i < back.size(); ++i) ASSERT_EQ(back[i], 0) << i;
}

TEST_F(NodeStoreTest, BatchAdvancesClockToMaxCompletion) {
  NodeStore store(dev_, io_, 64 * kKiB);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(store.allocate());

  // Serial baseline on an identical device: clock advances by the sum.
  sim::HddDevice serial_dev(make_config());
  sim::IoContext serial_io(serial_dev);
  NodeStore serial_store(serial_dev, serial_io, 64 * kKiB);
  for (int i = 0; i < 8; ++i) serial_store.allocate();
  for (uint64_t id : ids) {
    ASSERT_TRUE(serial_store.try_touch_read(id, 0, 64 * kKiB).ok());
  }

  std::vector<ByteBuffer> images;
  ASSERT_TRUE(store.try_read_nodes(ids, images).ok());
  // The HDD still serializes on its single actuator, but the batch window
  // lets it reorder seeks — never slower than the one-at-a-time path.
  EXPECT_LE(io_.now(), serial_io.now());
  EXPECT_GT(io_.now(), 0u);
}

TEST_F(NodeStoreTest, TouchReadBatchChargesEverySpan) {
  NodeStore store(dev_, io_, 64 * kKiB);
  const uint64_t a = store.allocate();
  const uint64_t b = store.allocate();
  const sim::SimTime before = io_.now();
  const NodeStore::NodeSpan spans[] = {{a, 0, 4096}, {b, 8192, 1024}};
  ASSERT_TRUE(store.try_touch_read_batch(spans).ok());
  EXPECT_GT(io_.now(), before);
  EXPECT_EQ(dev_.stats().reads, 2u);
  EXPECT_EQ(dev_.stats().bytes_read, 4096u + 1024u);
}

using NodeStoreDeathTest = NodeStoreTest;

TEST_F(NodeStoreDeathTest, OversizeImageAborts) {
  NodeStore store(dev_, io_, 4 * kKiB);
  const uint64_t id = store.allocate();
  ByteBuffer image(5 * kKiB, 0);
  EXPECT_DEATH((void)store.try_write_node(id, image), "exceeds extent");
}

TEST_F(NodeStoreDeathTest, SpanPastExtentAborts) {
  NodeStore store(dev_, io_, 4 * kKiB);
  const uint64_t id = store.allocate();
  EXPECT_DEATH((void)store.try_touch_read(id, 1024, 4096), "");
}

}  // namespace
}  // namespace damkit::blockdev
