#include "blockdev/codec.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "blockdev/block_device.h"
#include "sim/hdd.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace damkit::blockdev {
namespace {

std::vector<uint8_t> random_bytes(Rng& rng, size_t n) {
  std::vector<uint8_t> out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.uniform(256));
  return out;
}

// A block of sorted fixed-width records with long shared prefixes — the
// shape both codecs are built for.
std::vector<uint8_t> sorted_records(size_t count) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i < count; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "user/%08zu/profile", i);
    out.insert(out.end(), key, key + std::strlen(key));
    out.insert(out.end(), 16, static_cast<uint8_t>(i & 0xff));
  }
  return out;
}

TEST(CodecKindTest, NamesRoundTrip) {
  for (const CodecKind kind : kAllCodecKinds) {
    const auto parsed = parse_codec_kind(codec_kind_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_EQ(parse_codec_kind("default"), CodecKind::kDefault);
  EXPECT_FALSE(parse_codec_kind("zstd").has_value());
  EXPECT_FALSE(parse_codec_kind("").has_value());
}

TEST(CodecVarintTest, RoundTripBoundaryValues) {
  const uint64_t values[] = {0,     1,       127,        128,
                             16383, 16384,   0xffffffff, 1ull << 62,
                             UINT64_MAX};
  for (const uint64_t v : values) {
    std::vector<uint8_t> buf;
    put_uvarint(buf, v);
    size_t pos = 0;
    uint64_t back = 0;
    ASSERT_TRUE(get_uvarint(buf, pos, &back)) << v;
    EXPECT_EQ(back, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(CodecVarintTest, TruncatedAndOverlongInputsFail) {
  std::vector<uint8_t> buf;
  put_uvarint(buf, UINT64_MAX);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    size_t pos = 0;
    uint64_t v = 0;
    EXPECT_FALSE(get_uvarint(std::span(buf.data(), cut), pos, &v));
  }
  // Eleven continuation bytes never terminate within the 64-bit budget.
  const std::vector<uint8_t> overlong(11, 0x80);
  size_t pos = 0;
  uint64_t v = 0;
  EXPECT_FALSE(get_uvarint(overlong, pos, &v));
}

class CodecRoundTripTest : public testing::TestWithParam<CodecKind> {};

TEST_P(CodecRoundTripTest, RoundTripsVariedPayloads) {
  const auto codec = make_codec(GetParam());
  Rng rng(7);
  std::vector<std::vector<uint8_t>> payloads;
  payloads.push_back({});                                 // empty
  payloads.push_back({42});                               // single byte
  payloads.push_back(std::vector<uint8_t>(4096, 0));      // all zeros
  payloads.push_back(sorted_records(100));                // compressible
  payloads.push_back(random_bytes(rng, 4096));            // incompressible
  auto mixed = sorted_records(50);
  const auto noise = random_bytes(rng, 1000);
  mixed.insert(mixed.end(), noise.begin(), noise.end());
  payloads.push_back(std::move(mixed));
  for (const auto& raw : payloads) {
    std::vector<uint8_t> frame, back;
    codec->encode(raw, frame);
    ASSERT_TRUE(codec->decode(frame, back)) << raw.size();
    EXPECT_EQ(back, raw);
  }
}

TEST_P(CodecRoundTripTest, EveryTruncatedFrameFailsToDecode) {
  const auto codec = make_codec(GetParam());
  const auto raw = sorted_records(60);
  std::vector<uint8_t> frame, back;
  codec->encode(raw, frame);
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_FALSE(codec->decode(std::span(frame.data(), cut), back))
        << "torn frame of " << cut << "/" << frame.size()
        << " bytes decoded";
  }
}

TEST_P(CodecRoundTripTest, AnyKindDecodesAnyKindsFrames) {
  // The frame format is shared; kinds differ only in match search.
  const auto encoder = make_codec(GetParam());
  const auto raw = sorted_records(40);
  std::vector<uint8_t> frame;
  encoder->encode(raw, frame);
  for (const CodecKind other : kAllCodecKinds) {
    std::vector<uint8_t> back;
    ASSERT_TRUE(make_codec(other)->decode(frame, back));
    EXPECT_EQ(back, raw);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, CodecRoundTripTest,
                         testing::ValuesIn(kAllCodecKinds),
                         [](const auto& info) {
                           return std::string(codec_kind_name(info.param));
                         });

TEST(CodecFrameTest, MalformedFramesAreRejectedNotAborted) {
  const auto codec = make_codec(CodecKind::kLz);
  std::vector<uint8_t> back;

  {  // Unknown mode byte.
    std::vector<uint8_t> frame;
    put_uvarint(frame, 4);
    frame.push_back(7);
    frame.insert(frame.end(), {1, 2, 3, 4});
    EXPECT_FALSE(codec->decode(frame, back));
  }
  {  // Raw payload shorter than the declared length.
    std::vector<uint8_t> frame;
    put_uvarint(frame, 100);
    frame.push_back(0);
    frame.insert(frame.end(), {1, 2, 3});
    EXPECT_FALSE(codec->decode(frame, back));
  }
  {  // Match before any output (dist > produced bytes).
    std::vector<uint8_t> frame;
    put_uvarint(frame, 8);
    frame.push_back(1);
    put_uvarint(frame, 0);  // no literals
    put_uvarint(frame, 8);  // match_len
    put_uvarint(frame, 1);  // dist 1 with empty output
    EXPECT_FALSE(codec->decode(frame, back));
  }
  {  // Zero distance.
    std::vector<uint8_t> frame;
    put_uvarint(frame, 8);
    frame.push_back(1);
    put_uvarint(frame, 2);
    frame.insert(frame.end(), {9, 9});
    put_uvarint(frame, 6);
    put_uvarint(frame, 0);
    EXPECT_FALSE(codec->decode(frame, back));
  }
  {  // Match overruns the declared raw length.
    std::vector<uint8_t> frame;
    put_uvarint(frame, 4);
    frame.push_back(1);
    put_uvarint(frame, 2);
    frame.insert(frame.end(), {9, 9});
    put_uvarint(frame, 6);  // 2 + 6 > 4
    put_uvarint(frame, 1);
    EXPECT_FALSE(codec->decode(frame, back));
  }
  {  // Trailing garbage after a complete reconstruction.
    const std::vector<uint8_t> raw{1, 2, 3, 4};
    std::vector<uint8_t> frame;
    codec->encode(raw, frame);
    frame.push_back(0xee);
    EXPECT_FALSE(codec->decode(frame, back));
  }
  {  // Empty frame.
    EXPECT_FALSE(codec->decode({}, back));
  }
}

TEST(CodecFrameTest, PrefixCodecCompressesSortedRecords) {
  const auto codec = make_codec(CodecKind::kPrefix);
  const auto raw = sorted_records(200);
  std::vector<uint8_t> frame;
  codec->encode(raw, frame);
  EXPECT_LT(frame.size(), raw.size() * 7 / 10)
      << "prefix truncation should remove most shared key prefixes";
  EXPECT_LT(codec->stats().ratio(), 0.7);
  EXPECT_EQ(codec->stats().bytes_saved(), raw.size() - frame.size());
}

TEST(CodecFrameTest, LzAtLeastMatchesPrefixOnRepetitiveData) {
  const auto raw = sorted_records(200);
  std::vector<uint8_t> prefix_frame, lz_frame;
  make_codec(CodecKind::kPrefix)->encode(raw, prefix_frame);
  make_codec(CodecKind::kLz)->encode(raw, lz_frame);
  EXPECT_LE(lz_frame.size(), prefix_frame.size());
}

TEST(CodecFrameTest, IncompressibleInputCostsOnlyTheHeader) {
  Rng rng(11);
  const auto raw = random_bytes(rng, 4096);
  for (const CodecKind kind : kAllCodecKinds) {
    const auto codec = make_codec(kind);
    std::vector<uint8_t> frame;
    codec->encode(raw, frame);
    EXPECT_LE(frame.size(), raw.size() + 6) << codec_kind_name(kind);
    EXPECT_EQ(codec->stats().raw_fallbacks, 1u)
        << "noise must fall back to a verbatim frame";
    std::vector<uint8_t> back;
    ASSERT_TRUE(codec->decode(frame, back));
    EXPECT_EQ(back, raw);
  }
}

TEST(CodecFrameTest, StatsAccumulateAndClear) {
  const auto codec = make_codec(CodecKind::kLz);
  const auto raw = sorted_records(50);
  std::vector<uint8_t> frame, back;
  codec->encode(raw, frame);
  codec->encode(raw, frame);
  ASSERT_TRUE(codec->decode(frame, back));
  EXPECT_EQ(codec->stats().encode_calls, 2u);
  EXPECT_EQ(codec->stats().decode_calls, 1u);
  EXPECT_EQ(codec->stats().raw_bytes, 2 * raw.size());
  EXPECT_GT(codec->stats().bytes_saved(), 0u);
  codec->clear_stats();
  EXPECT_EQ(codec->stats().encode_calls, 0u);
  EXPECT_EQ(codec->stats().ratio(), 1.0);
}

// ---------------------------------------------------------------------------
// NodeStore with a codec: partial-extent IO, charging, and fallbacks.
// ---------------------------------------------------------------------------

class NodeStoreCodecTest : public testing::TestWithParam<CodecKind> {
 protected:
  NodeStoreCodecTest() : dev_(make_config()), io_(dev_) {}

  static sim::HddConfig make_config() {
    sim::HddConfig cfg;
    cfg.capacity_bytes = 1ULL * kGiB;
    return cfg;
  }

  sim::HddDevice dev_;
  sim::IoContext io_;
};

TEST_P(NodeStoreCodecTest, CompressedWriteChargesStoredBytesOnly) {
  NodeStore store(dev_, io_, 64 * kKiB, 0, GetParam());
  const uint64_t id = store.allocate();
  const auto image = sorted_records(500);  // compressible, < node_bytes
  ByteBuffer io = copy_bytes(image);
  ASSERT_TRUE(store.try_write_node(id, io).ok());
  const uint64_t stored = store.stored_bytes(id);
  EXPECT_GT(stored, 0u);
  EXPECT_LT(stored, 64u * kKiB);
  EXPECT_EQ(dev_.stats().bytes_written, stored);

  dev_.clear_stats();
  ByteBuffer back;
  ASSERT_TRUE(store.try_read_node(id, back).ok());
  EXPECT_EQ(dev_.stats().bytes_read, stored);  // partial-extent read
  ASSERT_EQ(back.size(), 64u * kKiB);
  EXPECT_EQ(std::memcmp(back.data(), image.data(), image.size()), 0);
  for (size_t i = image.size(); i < back.size(); ++i) {
    ASSERT_EQ(back[i], 0) << i;
  }
}

TEST_P(NodeStoreCodecTest, IncompressibleImageFallsBackToRawExtent) {
  NodeStore store(dev_, io_, 4 * kKiB, 0, GetParam());
  const uint64_t id = store.allocate();
  Rng rng(23);
  const auto image = random_bytes(rng, 4 * kKiB);  // fills the extent
  ByteBuffer io = copy_bytes(image);
  ASSERT_TRUE(store.try_write_node(id, io).ok());
  // A frame would exceed the extent, so the raw padded image is stored.
  EXPECT_EQ(store.stored_bytes(id), 4u * kKiB);
  EXPECT_EQ(dev_.stats().bytes_written, 4u * kKiB);
  ByteBuffer back;
  ASSERT_TRUE(store.try_read_node(id, back).ok());
  EXPECT_EQ(std::vector<uint8_t>(back.begin(), back.end()), image);
}

TEST_P(NodeStoreCodecTest, SpanAndTouchChargesScaleWithStoredSize) {
  NodeStore store(dev_, io_, 64 * kKiB, 0, GetParam());
  const uint64_t id = store.allocate();
  ByteBuffer image(64 * kKiB, 7);  // collapses to almost nothing
  ASSERT_TRUE(store.try_write_node(id, image).ok());
  const uint64_t stored = store.stored_bytes(id);
  ASSERT_LT(stored, 64u * kKiB / 100);

  dev_.clear_stats();
  ASSERT_TRUE(store.try_touch_read(id, 8192, 16 * kKiB).ok());
  // A quarter of the node charges about a quarter of the frame.
  EXPECT_LE(dev_.stats().bytes_read, stored / 4 + 1);

  dev_.clear_stats();
  ASSERT_TRUE(store.try_touch_read(id, 0, 64 * kKiB).ok());
  EXPECT_EQ(dev_.stats().bytes_read, stored);  // whole node = whole frame
}

TEST_P(NodeStoreCodecTest, BatchPathsRoundTripCompressedImages) {
  NodeStore store(dev_, io_, 16 * kKiB, 0, GetParam());
  Rng rng(5);
  std::vector<uint64_t> ids;
  std::vector<std::vector<uint8_t>> images;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(store.allocate());
    // Alternate compressible and incompressible images in one batch.
    images.push_back(i % 2 == 0 ? sorted_records(80 + i)
                                : random_bytes(rng, 16 * kKiB));
  }
  std::vector<ByteBuffer> io;
  for (const auto& image : images) io.push_back(copy_bytes(image));
  std::vector<NodeStore::NodeImage> writes;
  for (size_t i = 0; i < ids.size(); ++i) writes.push_back({ids[i], &io[i]});
  ASSERT_TRUE(store.try_write_nodes(writes).ok());
  uint64_t stored_total = 0;
  for (const uint64_t id : ids) stored_total += store.stored_bytes(id);
  EXPECT_EQ(dev_.stats().bytes_written, stored_total);
  EXPECT_LT(stored_total, 6u * 16 * kKiB);

  dev_.clear_stats();
  std::vector<ByteBuffer> back;
  ASSERT_TRUE(store.try_read_nodes(ids, back).ok());
  EXPECT_EQ(dev_.stats().bytes_read, stored_total);
  ASSERT_EQ(back.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(back[i].size(), 16u * kKiB);
    EXPECT_EQ(
        std::memcmp(back[i].data(), images[i].data(), images[i].size()), 0)
        << i;
  }
}

TEST_P(NodeStoreCodecTest, FreeResetsStoredLength) {
  NodeStore store(dev_, io_, 16 * kKiB, 0, GetParam());
  const uint64_t id = store.allocate();
  ByteBuffer io = copy_bytes(sorted_records(100));
  ASSERT_TRUE(store.try_write_node(id, io).ok());
  ASSERT_LT(store.stored_bytes(id), 16u * kKiB);  // compressed
  store.free(id);
  ASSERT_EQ(store.allocate(), id);  // slot reuse
  // Never-written nodes report the full extent (read raw, full charge).
  EXPECT_EQ(store.stored_bytes(id), 16u * kKiB);
}

TEST_P(NodeStoreCodecTest, PeekServesDecodedPayloadWithoutTiming) {
  NodeStore store(dev_, io_, 16 * kKiB, 0, GetParam());
  const uint64_t id = store.allocate();
  const auto image = sorted_records(100);
  ByteBuffer io = copy_bytes(image);
  ASSERT_TRUE(store.try_write_node(id, io).ok());
  const sim::SimTime before = io_.now();
  dev_.clear_stats();
  ByteBuffer back;
  ASSERT_TRUE(store.peek_node(id, back).ok());
  EXPECT_EQ(io_.now(), before);
  EXPECT_EQ(dev_.stats().reads, 0u);
  EXPECT_EQ(std::memcmp(back.data(), image.data(), image.size()), 0);
}

INSTANTIATE_TEST_SUITE_P(Codecs, NodeStoreCodecTest,
                         testing::Values(CodecKind::kPrefix, CodecKind::kLz),
                         [](const auto& info) {
                           return std::string(codec_kind_name(info.param));
                         });

TEST(NodeStoreIdentityTest, ExplicitIdentityMatchesDefaultTiming) {
  sim::HddConfig cfg;
  cfg.capacity_bytes = 1ULL * kGiB;
  sim::HddDevice dev_a(cfg), dev_b(cfg);
  sim::IoContext io_a(dev_a), io_b(dev_b);
  NodeStore plain(dev_a, io_a, 16 * kKiB);
  NodeStore ident(dev_b, io_b, 16 * kKiB, 0, CodecKind::kIdentity);
  const uint64_t a = plain.allocate();
  const uint64_t b = ident.allocate();
  const auto image = sorted_records(100);
  ByteBuffer io_a_image = copy_bytes(image);
  ByteBuffer io_b_image = copy_bytes(image);
  ASSERT_TRUE(plain.try_write_node(a, io_a_image).ok());
  ASSERT_TRUE(ident.try_write_node(b, io_b_image).ok());
  ByteBuffer buf;
  ASSERT_TRUE(plain.try_read_node(a, buf).ok());
  ASSERT_TRUE(ident.try_read_node(b, buf).ok());
  EXPECT_EQ(io_a.now(), io_b.now());
  EXPECT_EQ(dev_a.stats().bytes_written, dev_b.stats().bytes_written);
  EXPECT_EQ(ident.codec_kind(), CodecKind::kIdentity);
  EXPECT_EQ(ident.stored_bytes(b), 16u * kKiB)  // raw, unframed extent
      << "identity must bypass the codec entirely";
}

}  // namespace
}  // namespace damkit::blockdev
