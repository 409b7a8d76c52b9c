// NodeCache over a real NodeStore: LRU order, dirty versus clean eviction,
// implicit pins, the batched checkpoint, failed writebacks driven by a
// crash-point device, and the fetch/prefetch/recharge/drop life cycle.
// NodeCache is the trees' buffer pool (the M of the models); the suites
// are named for that role.
#include "cache/node_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "sim/fault_injection.h"
#include "sim/hdd.h"
#include "util/bytes.h"

namespace damkit::cache {
namespace {

constexpr uint64_t kNodeBytes = 4 * kKiB;

// The smallest node the cache can move: one u64 payload.
struct TestNode {
  explicit TestNode(uint64_t v) : value(v) {}
  uint64_t value;

  void serialize(ByteBuffer& out) const {
    out.assign(8, 0);
    store_u64(out.data(), value);
  }
  static std::shared_ptr<TestNode> deserialize(ByteBuffer&& image) {
    return std::make_shared<TestNode>(load_u64(image.data()));
  }
};

using Cache = NodeCache<TestNode>;

class BufferPoolTest : public testing::Test {
 protected:
  BufferPoolTest() : hdd_(make_config()), dev_(hdd_, {}), io_(dev_) {}

  static sim::HddConfig make_config() {
    sim::HddConfig cfg;
    cfg.capacity_bytes = 1ULL * kGiB;
    return cfg;
  }

  // IO fails fast (no retries), so a crashed device fails exactly the
  // writes issued after the crash point.
  std::unique_ptr<Cache> make_cache(uint64_t capacity) {
    auto cache = std::make_unique<Cache>(dev_, io_, kNodeBytes, capacity, 0,
                                         blockdev::CodecKind::kIdentity);
    blockdev::RetryPolicy fail_fast;
    fail_fast.max_attempts = 1;
    io_.set_retry_policy(fail_fast);
    return cache;
  }

  // A node at a fresh extent, its value 100 + its id; returns the id.
  static uint64_t add(Cache& cache, uint64_t charged_bytes, bool dirty) {
    const uint64_t id = cache.store().allocate();
    cache.put(id, std::make_shared<TestNode>(100 + id), charged_bytes, dirty);
    return id;
  }

  // The value stored on the device for node `id` (0 if never written).
  uint64_t on_device(uint64_t id) {
    blockdev::NodeStore reader(dev_, io_, kNodeBytes);
    ByteBuffer image;
    EXPECT_TRUE(reader.try_read_node(id, image).ok());
    return load_u64(image.data());
  }

  sim::HddDevice hdd_;
  sim::FaultInjectingDevice dev_;
  sim::IoContext io_;
};

TEST_F(BufferPoolTest, GetMissThenHit) {
  auto cache = make_cache(1000);
  EXPECT_EQ(cache->lookup(1), nullptr);
  EXPECT_EQ(cache->stats().misses, 1u);
  cache->put(1, std::make_shared<TestNode>(42), 100, false);
  auto node = cache->lookup(1);
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->value, 42u);
  EXPECT_EQ(cache->stats().hits, 1u);
}

TEST_F(BufferPoolTest, FetchMissReadsParsesAndInsertsClean) {
  auto cache = make_cache(4 * kNodeBytes);
  const uint64_t id = cache->store().allocate();
  ASSERT_TRUE(cache->write_through(id, TestNode(7)).ok());
  EXPECT_FALSE(cache->contains(id));  // write-through leaves it cold

  auto fetched = cache->fetch(id);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ((*fetched)->value, 7u);
  EXPECT_TRUE(cache->contains(id));
  EXPECT_FALSE(cache->is_dirty(id));
  EXPECT_EQ(cache->charged_bytes(), kNodeBytes);
  EXPECT_EQ(cache->stats().misses, 1u);
  EXPECT_EQ(cache->store().stats().node_reads, 1u);

  ASSERT_TRUE(cache->fetch(id).ok());  // hit: no second read
  EXPECT_EQ(cache->stats().hits, 1u);
  EXPECT_EQ(cache->store().stats().node_reads, 1u);
}

TEST_F(BufferPoolTest, PrefetchReadsMissingNodesAsOneBatch) {
  auto cache = make_cache(8 * kNodeBytes);
  std::vector<uint64_t> ids;
  for (uint64_t v = 0; v < 3; ++v) {
    ids.push_back(cache->store().allocate());
    ASSERT_TRUE(cache->write_through(ids.back(), TestNode(v)).ok());
  }
  ASSERT_TRUE(cache->fetch(ids[0]).ok());
  ASSERT_TRUE(cache->prefetch(ids).ok());  // ids[1] and ids[2] are missing
  const blockdev::NodeStoreStats& st = cache->store().stats();
  EXPECT_EQ(st.read_batches, 1u);
  EXPECT_EQ(st.batched_reads, 2u);
  EXPECT_FALSE(cache->is_dirty(ids[2]));
  EXPECT_EQ((*cache->fetch(ids[2]))->value, 2u);

  // A single missing node is left to the caller's fetch.
  cache->drop(ids[1]);
  ASSERT_TRUE(cache->prefetch(ids).ok());
  EXPECT_EQ(st.read_batches, 1u);
  EXPECT_FALSE(cache->contains(ids[1]));
}

TEST_F(BufferPoolTest, EvictsLruFirst) {
  auto cache = make_cache(300);
  cache->put(1, std::make_shared<TestNode>(1), 100, false);
  cache->put(2, std::make_shared<TestNode>(2), 100, false);
  cache->put(3, std::make_shared<TestNode>(3), 100, false);
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_NE(cache->lookup(1), nullptr);
  cache->put(4, std::make_shared<TestNode>(4), 100, false);
  EXPECT_TRUE(cache->contains(1));
  EXPECT_FALSE(cache->contains(2));
  EXPECT_TRUE(cache->contains(3));
  EXPECT_TRUE(cache->contains(4));
  EXPECT_EQ(cache->stats().evictions, 1u);
}

TEST_F(BufferPoolTest, DirtyEvictionWritesBack) {
  auto cache = make_cache(200);
  const uint64_t a = add(*cache, 100, true);
  add(*cache, 100, false);
  add(*cache, 100, false);  // evicts a (dirty)
  EXPECT_FALSE(cache->contains(a));
  EXPECT_EQ(cache->stats().dirty_writebacks, 1u);
  // One eviction is one scalar write.
  EXPECT_EQ(cache->store().stats().node_writes, 1u);
  EXPECT_EQ(cache->store().stats().write_batches, 0u);
  EXPECT_EQ(on_device(a), 100 + a);
}

TEST_F(BufferPoolTest, CleanEvictionSkipsWriteback) {
  auto cache = make_cache(100);
  add(*cache, 100, false);
  add(*cache, 100, false);
  EXPECT_EQ(cache->stats().evictions, 1u);
  EXPECT_EQ(cache->store().stats().node_writes, 0u);
}

TEST_F(BufferPoolTest, PinnedEntriesSurviveEviction) {
  auto cache = make_cache(200);
  auto pinned = std::make_shared<TestNode>(1);
  cache->put(1, pinned, 100, false);  // we keep a reference → pinned
  cache->put(2, std::make_shared<TestNode>(2), 100, false);
  cache->put(3, std::make_shared<TestNode>(3), 100, false);  // evicts 2
  EXPECT_TRUE(cache->contains(1));
  EXPECT_FALSE(cache->contains(2));
}

TEST_F(BufferPoolTest, TransientPinOverflowTolerated) {
  // One pinned entry plus an incoming one may exceed M transiently (a
  // tree descent pins the parent while loading the child); only a pinned
  // set that alone exceeds M is a hard error (see the death test below).
  auto cache = make_cache(150);
  auto a = std::make_shared<TestNode>(1);
  cache->put(1, a, 100, false);  // pinned (we hold a reference)
  cache->put(2, std::make_shared<TestNode>(2), 50, false);
  EXPECT_TRUE(cache->contains(1));
  EXPECT_TRUE(cache->contains(2));
  EXPECT_EQ(cache->charged_bytes(), 150u);
}

TEST_F(BufferPoolTest, PinnedBytesTracked) {
  auto cache = make_cache(1000);
  auto pinned = std::make_shared<TestNode>(1);
  cache->put(1, pinned, 300, false);
  cache->put(2, std::make_shared<TestNode>(2), 400, false);  // unpinned
  EXPECT_EQ(cache->pinned_bytes(), 300u);
  EXPECT_EQ(cache->stats().pinned_bytes, 300u);
  pinned.reset();  // drop our reference → nothing pinned
  EXPECT_EQ(cache->pinned_bytes(), 0u);
  EXPECT_EQ(cache->stats().pinned_bytes, 0u);
}

TEST_F(BufferPoolTest, FlushAllUsesBatchWriteback) {
  auto cache = make_cache(1000);
  const uint64_t a = add(*cache, 100, true);
  const uint64_t b = add(*cache, 100, false);
  const uint64_t c = add(*cache, 100, true);
  ASSERT_TRUE(cache->flush_all().ok());
  // Both dirty nodes went out as one batch; the clean one did not move.
  const blockdev::NodeStoreStats& st = cache->store().stats();
  EXPECT_EQ(st.write_batches, 1u);
  EXPECT_EQ(st.batched_writes, 2u);
  EXPECT_EQ(st.node_writes, 0u);
  EXPECT_EQ(cache->stats().dirty_writebacks, 2u);
  EXPECT_FALSE(cache->is_dirty(a));
  EXPECT_FALSE(cache->is_dirty(c));
  EXPECT_EQ(on_device(a), 100 + a);
  EXPECT_EQ(on_device(b), 0u);
  EXPECT_EQ(on_device(c), 100 + c);
  ASSERT_TRUE(cache->flush_all().ok());
  EXPECT_EQ(st.write_batches, 1u);  // nothing dirty: no second batch
}

TEST_F(BufferPoolTest, MarkDirtyThenFlushAll) {
  auto cache = make_cache(1000);
  const uint64_t a = add(*cache, 100, false);
  const uint64_t b = add(*cache, 100, false);
  cache->mark_dirty(a);
  EXPECT_TRUE(cache->is_dirty(a));
  EXPECT_FALSE(cache->is_dirty(b));
  ASSERT_TRUE(cache->flush_all().ok());
  EXPECT_EQ(cache->store().stats().batched_writes, 1u);
  EXPECT_FALSE(cache->is_dirty(a));  // clean after writeback
  ASSERT_TRUE(cache->flush_all().ok());
  EXPECT_EQ(cache->store().stats().batched_writes, 1u);  // no double write
}

TEST_F(BufferPoolTest, FlushAllFailureKeepsEntryDirtyAndResident) {
  // A writeback failure mid-checkpoint must not lose the entry or its
  // dirty bit: the rest of the batch still lands, the first failure is
  // reported, and the failed entry can be flushed again later.
  auto cache = make_cache(1000);
  const uint64_t a = add(*cache, 100, true);
  const uint64_t b = add(*cache, 100, true);
  const uint64_t c = add(*cache, 100, true);
  const uint64_t charged_before = cache->charged_bytes();

  // The batch runs MRU→LRU (c, b, a); the device dies after two writes.
  dev_.crash_after(2);
  const Status s = cache->flush_all();
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  // The healthy entries were still written and cleaned...
  EXPECT_FALSE(cache->is_dirty(c));
  EXPECT_FALSE(cache->is_dirty(b));
  // ...the failed one stays resident, dirty, and fully charged.
  EXPECT_TRUE(cache->contains(a));
  EXPECT_TRUE(cache->is_dirty(a));
  EXPECT_EQ(cache->charged_bytes(), charged_before);
  EXPECT_EQ(cache->stats().writeback_failures, 1u);
  EXPECT_EQ(cache->stats().dirty_writebacks, 2u);

  // Once the device recovers, a later checkpoint completes the flush.
  dev_.reboot();
  EXPECT_EQ(on_device(c), 100 + c);
  ASSERT_TRUE(cache->flush_all().ok());
  EXPECT_FALSE(cache->is_dirty(a));
  EXPECT_EQ(cache->stats().dirty_writebacks, 3u);
  EXPECT_EQ(cache->store().stats().batched_writes, 1u);
  EXPECT_EQ(on_device(a), 100 + a);
}

TEST_F(BufferPoolTest, FailedEvictionWritebackKeepsEntryResident) {
  auto cache = make_cache(200);
  const uint64_t a = add(*cache, 100, true);
  const uint64_t b = add(*cache, 100, false);
  dev_.crash_after(0);
  add(*cache, 100, false);  // a's writeback fails: b is evicted instead
  EXPECT_TRUE(cache->contains(a));
  EXPECT_TRUE(cache->is_dirty(a));
  EXPECT_FALSE(cache->contains(b));
  EXPECT_EQ(cache->stats().writeback_failures, 1u);
  EXPECT_EQ(cache->stats().evictions, 1u);
  dev_.reboot();  // so the destructor's flush can land a
}

TEST_F(BufferPoolTest, EraseDropsWithoutWriteback) {
  auto cache = make_cache(1000);
  const uint64_t a = add(*cache, 100, true);
  const uint64_t in_use = cache->store().nodes_in_use();
  cache->drop(a);
  EXPECT_FALSE(cache->contains(a));
  EXPECT_EQ(cache->charged_bytes(), 0u);
  EXPECT_EQ(cache->store().nodes_in_use(), in_use - 1);  // extent freed
  // A cold node's extent is freed without touching the cache.
  const uint64_t cold = cache->store().allocate();
  cache->drop(cold);
  EXPECT_EQ(cache->store().nodes_in_use(), in_use - 1);
  ASSERT_TRUE(cache->flush_all().ok());
  EXPECT_EQ(cache->store().stats().batched_writes, 0u);
}

TEST_F(BufferPoolTest, ChargedBytesTracked) {
  auto cache = make_cache(1000);
  const uint64_t a = add(*cache, 300, false);
  add(*cache, 400, false);
  EXPECT_EQ(cache->charged_bytes(), 700u);
  cache->drop(a);
  EXPECT_EQ(cache->charged_bytes(), 400u);
}

TEST_F(BufferPoolTest, RechargeReinsertsAtNewChargeAsMru) {
  auto cache = make_cache(350);
  cache->put(1, std::make_shared<TestNode>(1), 100, true);
  cache->put(2, std::make_shared<TestNode>(2), 100, false);
  cache->put(3, std::make_shared<TestNode>(3), 100, false);
  cache->recharge(1, 200);  // 400 > 350: evicts 2, the LRU entry
  EXPECT_EQ(cache->charged_bytes(), 300u);
  EXPECT_FALSE(cache->contains(2));
  EXPECT_TRUE(cache->is_dirty(1));  // dirty bit kept
  EXPECT_EQ(cache->stats().inserted, 4u);
  cache->put(4, std::make_shared<TestNode>(4), 100, false);  // 1 is MRU
  EXPECT_FALSE(cache->contains(3));
  ASSERT_NE(cache->lookup(1), nullptr);
  EXPECT_EQ(cache->lookup(1)->value, 1u);
}

TEST_F(BufferPoolTest, HitRate) {
  auto cache = make_cache(1000);
  cache->put(1, std::make_shared<TestNode>(1), 10, false);
  cache->lookup(1);
  cache->lookup(1);
  cache->lookup(2);
  EXPECT_NEAR(cache->stats().hit_rate(), 2.0 / 3.0, 1e-12);
}

TEST_F(BufferPoolTest, DestructorToleratesCleanEntries) {
  auto cache = make_cache(1000);
  add(*cache, 10, false);
  cache.reset();  // clean entries: nothing to write
  EXPECT_EQ(dev_.stats().writes, 0u);
}

TEST_F(BufferPoolTest, DestructorFlushesDirtyEntries) {
  auto cache = make_cache(1000);
  const uint64_t a = add(*cache, 10, true);
  cache.reset();
  EXPECT_EQ(on_device(a), 100 + a);
}

TEST_F(BufferPoolTest, DiscardAllDropsDirtyStateWithoutWriteback) {
  // The crash-teardown path: a cache over a dead device must be emptiable
  // without issuing a single writeback (which would fail or spend
  // simulated IO that never happened).
  auto cache = make_cache(1000);
  const uint64_t a = add(*cache, 100, true);
  const uint64_t b = add(*cache, 100, true);
  const uint64_t c = add(*cache, 100, false);
  cache->discard_all();
  EXPECT_FALSE(cache->contains(a));
  EXPECT_FALSE(cache->contains(b));
  EXPECT_FALSE(cache->contains(c));
  EXPECT_EQ(cache->charged_bytes(), 0u);
  // And the destructor has nothing left to flush.
  cache.reset();
  EXPECT_EQ(dev_.stats().writes, 0u);
}

TEST_F(BufferPoolTest, DiscardAllAfterFailedWritebackIsClean) {
  // Entries kept resident because their writeback failed (the deferred
  // set) are exactly what discard_all must be able to drop post-crash.
  auto cache = make_cache(1000);
  add(*cache, 100, true);
  dev_.crash_after(0);
  EXPECT_FALSE(cache->flush_all().ok());
  cache->discard_all();
  cache.reset();
}

using BufferPoolDeathTest = BufferPoolTest;

TEST_F(BufferPoolDeathTest, DiscardAllWithPinnedEntryAborts) {
  auto cache = make_cache(1000);
  auto held = std::make_shared<TestNode>(1);
  cache->put(1, held, 100, true);
  EXPECT_DEATH(cache->discard_all(), "pinned");
}

TEST_F(BufferPoolDeathTest, PinnedSetOverBudgetAborts) {
  auto cache = make_cache(100);
  auto a = std::make_shared<TestNode>(1);
  auto b = std::make_shared<TestNode>(2);
  cache->put(1, a, 100, false);
  cache->put(2, b, 100, false);  // transient overflow: still tolerated
  auto c = std::make_shared<TestNode>(3);
  // Resident pinned set (200) now exceeds M on its own: loud failure.
  EXPECT_DEATH(cache->put(3, c, 100, false), "pinned set exceeds capacity");
}

TEST_F(BufferPoolDeathTest, DoublePutAborts) {
  auto cache = make_cache(1000);
  cache->put(1, std::make_shared<TestNode>(1), 10, false);
  EXPECT_DEATH(cache->put(1, std::make_shared<TestNode>(2), 10, false),
               "already-resident");
}

TEST_F(BufferPoolDeathTest, MarkDirtyAbsentAborts) {
  auto cache = make_cache(1000);
  EXPECT_DEATH(cache->mark_dirty(5), "absent");
}

TEST_F(BufferPoolDeathTest, DestructorWithDirtyAborts) {
  // The destructor flushes; a dirty node that cannot be written back
  // would be lost, so it aborts instead.
  EXPECT_DEATH(
      {
        auto cache = make_cache(1000);
        add(*cache, 10, true);
        dev_.crash_after(0);
        cache.reset();
      },
      "crashed");
}

}  // namespace
}  // namespace damkit::cache
