// Digest bit-identity acceptance: the canonical differential workload is
// pinned to literal constants. The cross-engine differential test proves
// the engines agree with *each other*; this test proves they agree with
// *history* — any change to node byte-size accounting, split boundaries,
// op-generation RNG streams, or value derivation shows up as a digest
// mismatch here even if all engines drift together.
//
// The get-hit and scan counts were captured from the pre-slotted-layout
// tree (vector of owned std::string per node) and have never changed. The
// digest was recaptured once, when the read digest moved from byte-serial
// FNV-1a to the word-at-a-time hash in util/hash.h; the unchanged counts
// cross-check that only the hash moved.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "harness/workload_runner.h"
#include "kv/sharded_engine.h"
#include "sim/profiles.h"
#include "sim/ssd.h"
#include "util/bytes.h"

namespace damkit {
namespace {

// Mirrors cross_engine_differential_test.cpp exactly; duplicated on
// purpose so an edit over there cannot silently re-baseline this pin.
kv::EngineConfig pinned_config() {
  kv::EngineConfig cfg;
  cfg.btree.node_bytes = 16 * kKiB;
  cfg.btree.cache_bytes = 256 * kKiB;
  cfg.betree.node_bytes = 32 * kKiB;
  cfg.betree.cache_bytes = 256 * kKiB;
  cfg.lsm.memtable_bytes = 32 * kKiB;
  cfg.lsm.sstable_target_bytes = 64 * kKiB;
  cfg.pdam.buffer_bytes = 32 * kKiB;
  return cfg;
}

kv::WorkloadSpec pinned_spec() {
  kv::WorkloadSpec spec;
  spec.key_space = 3000;
  spec.value_bytes = 56;
  spec.get_weight = 0.35;
  spec.put_weight = 0.35;
  spec.delete_weight = 0.1;
  spec.scan_weight = 0.05;
  spec.upsert_weight = 0.15;
  spec.scan_length = 40;
  spec.seed = 2026;
  return spec;
}

// The counts were captured on the pre-refactor tree (vector<std::string>
// node layout, commit 9d91982). The digest was recaptured when the read
// digest switched to util/hash.h (it was 7807822745986309438 under
// FNV-1a); both values were identical across all five engines and the
// sharded composition.
constexpr uint64_t kPinnedDigest = 1990155402762472341ULL;
constexpr uint64_t kPinnedGetHits = 1366ULL;
constexpr uint64_t kPinnedScans = 292ULL;

harness::WorkloadRunResult drive(kv::Dictionary& dict, sim::IoContext& io) {
  harness::WorkloadRunner runner(dict, io);
  runner.bulk_load(1500, pinned_spec());
  const harness::WorkloadRunResult result = runner.run(pinned_spec(), 6000);
  dict.check_invariants();
  return result;
}

TEST(DigestPinTest, AllEnginesMatchPreRefactorDigest) {
  for (const kv::EngineKind kind : kv::kAllEngineKinds) {
    sim::SsdDevice dev(sim::testbed_ssd_profile());
    sim::IoContext io(dev);
    const auto dict = kv::make_engine(kind, dev, io, pinned_config());
    const harness::WorkloadRunResult result = drive(*dict, io);
    EXPECT_EQ(result.digest, kPinnedDigest) << dict->name();
    EXPECT_EQ(result.get_hits, kPinnedGetHits) << dict->name();
    EXPECT_EQ(result.scans, kPinnedScans) << dict->name();
    EXPECT_EQ(result.failed_ops, 0u) << dict->name();
  }
}

TEST(DigestPinTest, ShardedCompositionMatchesPreRefactorDigest) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  kv::ShardedConfig sharded;
  sharded.shards = 4;
  const auto dict = kv::make_sharded_engine(kv::EngineKind::kBTree, dev, io,
                                            pinned_config(), sharded);
  const harness::WorkloadRunResult result = drive(*dict, io);
  EXPECT_EQ(result.digest, kPinnedDigest);
  EXPECT_EQ(result.get_hits, kPinnedGetHits);
}

}  // namespace
}  // namespace damkit
