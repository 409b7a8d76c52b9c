// Cross-module integration: dictionaries on the SSD simulator, tracing
// through real workloads, scheduler-vs-tree interplay, and corrupted
// image handling — flows no single-module test exercises.
#include <gtest/gtest.h>

#include <memory>

#include "betree/betree.h"
#include "btree/btree.h"
#include "kv/engine.h"
#include "kv/slice.h"
#include "sim/profiles.h"
#include "sim/ssd.h"
#include "sim/trace.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace damkit {
namespace {

TEST(CrossModuleTest, BTreeOnSsd) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  kv::EngineConfig cfg;
  cfg.btree.node_bytes = 16 * kKiB;
  cfg.btree.cache_bytes = 1 * kMiB;
  const auto tree = kv::make_engine(kv::EngineKind::kBTree, dev, io, cfg);
  for (uint64_t i = 0; i < 5000; ++i) {
    tree->put(kv::encode_key(i), kv::make_value(i, 50));
  }
  tree->flush();
  tree->check_invariants();
  for (uint64_t i = 0; i < 5000; i += 37) {
    EXPECT_EQ(tree->get(kv::encode_key(i)), kv::make_value(i, 50));
  }
  // Same logical workload is far faster on flash than the HDD testbed.
  EXPECT_GT(io.now(), 0u);
}

TEST(CrossModuleTest, SsdFasterThanHddForRandomTreeOps) {
  auto run_on = [](sim::Device& dev) {
    sim::IoContext io(dev);
    kv::EngineConfig cfg;
    cfg.btree.node_bytes = 16 * kKiB;
    cfg.btree.cache_bytes = 512 * kKiB;
    const auto tree = kv::make_engine(kv::EngineKind::kBTree, dev, io, cfg);
    tree->bulk_load(30000, [](uint64_t i) {
      return std::make_pair(kv::encode_key(i), kv::make_value(i, 60));
    });
    Rng rng(5);
    for (int q = 0; q < 200; ++q) {
      (void)tree->get(kv::encode_key(rng.uniform(30000)));
    }
    return io.now();
  };
  sim::HddDevice hdd(sim::testbed_hdd_profile(), 1);
  sim::SsdDevice ssd(sim::testbed_ssd_profile());
  const sim::SimTime hdd_t = run_on(hdd);
  const sim::SimTime ssd_t = run_on(ssd);
  EXPECT_LT(ssd_t * 5, hdd_t);
}

TEST(CrossModuleTest, TracingThroughBeTreeWorkload) {
  sim::HddDevice dev(sim::testbed_hdd_profile(), 1);
  sim::IoTrace trace;
  dev.set_trace(&trace);
  sim::IoContext io(dev);
  {
    kv::EngineConfig cfg;
    cfg.betree.node_bytes = 64 * kKiB;
    cfg.betree.cache_bytes = 512 * kKiB;
    const auto tree = kv::make_engine(kv::EngineKind::kBeTree, dev, io, cfg);
    for (uint64_t i = 0; i < 20000; ++i) {
      tree->put(kv::encode_key(i), kv::make_value(i, 50));
    }
    tree->flush();
  }
  dev.set_trace(nullptr);
  ASSERT_FALSE(trace.empty());
  // The trace accounts for exactly the device's byte counters.
  EXPECT_EQ(trace.total_bytes(),
            dev.stats().bytes_read + dev.stats().bytes_written);
  // Bulk Bε ingest is write-mostly.
  uint64_t writes = 0;
  for (const auto& r : trace.records()) {
    if (r.kind == sim::IoKind::kWrite) ++writes;
  }
  EXPECT_GT(writes * 2, trace.size());

  // Replay the captured workload on a fresh identical disk: since the
  // recording device was idle at t=0 and requests replay back-to-back,
  // the replay cannot be slower than the recorded span.
  sim::HddDevice fresh(sim::testbed_hdd_profile(), 1);
  const sim::SimTime replay_t = sim::replay_trace(fresh, trace);
  EXPECT_GT(replay_t, 0u);
}

TEST(CrossModuleTest, LsmOnSsdProfile) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  kv::EngineConfig cfg;
  cfg.lsm.memtable_bytes = 64 * kKiB;
  cfg.lsm.sstable_target_bytes = 256 * kKiB;
  cfg.lsm.level1_bytes = 1 * kMiB;
  const auto tree = kv::make_engine(kv::EngineKind::kLsm, dev, io, cfg);
  for (uint64_t i = 0; i < 20000; ++i) {
    tree->put(kv::encode_key(i % 5000), kv::make_value(i, 40));
  }
  tree->flush();
  tree->check_invariants();
  for (uint64_t k = 0; k < 5000; k += 111) {
    EXPECT_TRUE(tree->get(kv::encode_key(k)).has_value()) << k;
  }
}

TEST(CrossModuleTest, TwoTreesShareOneDevice) {
  // A B-tree and a Bε-tree co-resident on one disk at different offsets:
  // the extent spaces must not alias.
  sim::HddDevice dev(sim::testbed_hdd_profile(), 1);
  sim::IoContext io(dev);
  kv::EngineConfig bcfg;
  bcfg.btree.node_bytes = 16 * kKiB;
  bcfg.btree.cache_bytes = 1 * kMiB;
  kv::set_base_offset(bcfg, 0);
  const auto bt = kv::make_engine(kv::EngineKind::kBTree, dev, io, bcfg);

  kv::EngineConfig ecfg;
  ecfg.betree.node_bytes = 64 * kKiB;
  ecfg.betree.cache_bytes = 1 * kMiB;
  kv::set_base_offset(ecfg, 100ULL * kGiB);  // second half of the disk
  const auto bet = kv::make_engine(kv::EngineKind::kBeTree, dev, io, ecfg);

  for (uint64_t i = 0; i < 3000; ++i) {
    bt->put(kv::encode_key(i), "btree-" + std::to_string(i));
    bet->put(kv::encode_key(i), "betree-" + std::to_string(i));
  }
  bt->flush();
  bet->flush();
  for (uint64_t i = 0; i < 3000; i += 101) {
    EXPECT_EQ(bt->get(kv::encode_key(i)), "btree-" + std::to_string(i));
    EXPECT_EQ(bet->get(kv::encode_key(i)), "betree-" + std::to_string(i));
  }
  bt->check_invariants();
  bet->check_invariants();
}

TEST(CrossModuleDeathTest, OversizedEntriesRejectedUpFront) {
  // Entries too large for the node size would make splits spin forever;
  // both trees must reject them instead: try_put with kInvalidArgument and
  // the tree unchanged, the infallible put loudly.
  sim::HddDevice dev(sim::testbed_hdd_profile(), 1);
  sim::IoContext io(dev);
  const auto check_rejects = [](kv::Dictionary& tree) {
    tree.put("k", std::string(1900, 'x'));  // within node/2: fine
    tree.put("m", "small");
    const auto before = tree.range_scan("", 10);
    EXPECT_EQ(tree.try_put("k", std::string(4000, 'x')).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(tree.try_put("l", std::string(4000, 'x')).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(tree.range_scan("", 10), before);
    EXPECT_EQ(tree.get("k"), std::string(1900, 'x'));
    EXPECT_EQ(tree.get("l"), std::nullopt);
    EXPECT_DEATH(tree.put("k", std::string(4000, 'x')), "too large");
    tree.check_invariants();
    tree.flush();
  };
  kv::EngineConfig bcfg;
  bcfg.btree.node_bytes = 4096;
  bcfg.btree.cache_bytes = 64 * 1024;
  check_rejects(*kv::make_engine(kv::EngineKind::kBTree, dev, io, bcfg));

  kv::EngineConfig ecfg;
  ecfg.betree.node_bytes = 4096;
  ecfg.betree.cache_bytes = 64 * 1024;
  kv::set_base_offset(ecfg, 100ULL * kGiB);
  check_rejects(*kv::make_engine(kv::EngineKind::kBeTree, dev, io, ecfg));
}

TEST(CrossModuleDeathTest, CorruptNodeImagesCaughtOnDeserialize) {
  // Bit-rot on the simulated device must be caught loudly, not decoded
  // into a plausible-but-wrong node.
  auto leaf = btree::BTreeNode::make_leaf();
  leaf->leaf_put("k", "v");
  std::vector<uint8_t> image;
  leaf->serialize(image);
  image[0] ^= 0xff;  // clobber the magic
  EXPECT_DEATH((void)btree::BTreeNode::deserialize(image), "magic");

  auto node = betree::BeTreeNode::make_leaf();
  node->leaf_apply({betree::MessageKind::kPut, "k", "v"});
  std::vector<uint8_t> be_image;
  node->serialize(be_image);
  be_image[1] ^= 0x5a;
  EXPECT_DEATH((void)betree::BeTreeNode::deserialize(be_image), "magic");

  // Truncation inside the payload trips the bounds-checked reader.
  leaf->serialize(image);
  image.resize(image.size() - 2);
  EXPECT_DEATH((void)btree::BTreeNode::deserialize(image), "short read");
}

}  // namespace
}  // namespace damkit
