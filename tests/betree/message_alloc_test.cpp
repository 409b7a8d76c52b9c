// A Bε-tree message stays one wire record from put to leaf: a put appends
// its record to the root's buffer segment, and a flush moves a whole
// segment out and appends each record to a grandchild's segment, so both
// allocate only when a segment's byte vector regrows, never per message.
// This binary replaces the global operator new to count allocations, and
// counts only between start_counting and stop_counting.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "betree/betree.h"
#include "kv/slice.h"
#include "sim/hdd.h"
#include "util/bytes.h"

namespace {

bool g_counting = false;
size_t g_allocations = 0;

}  // namespace

// Not inlined, so callers see new paired with delete, never malloc or
// free (which GCC would report as a mismatched pair).
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  if (g_counting) ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace damkit::betree {
namespace {

void start_counting() {
  g_allocations = 0;
  g_counting = true;
}

size_t stop_counting() {
  g_counting = false;
  return g_allocations;
}

// Exposes one flush of the root's fullest buffer.
class FlushableBeTree : public BeTree {
 public:
  using BeTree::BeTree;

  Status flush_root() {
    StatusOr<NodeRef> root = try_fetch(root_);
    DAMKIT_RETURN_IF_ERROR(root.status());
    return flush_one(root_, *root, /*depth=*/0);
  }
};

constexpr uint64_t kLoaded = 5000;
constexpr uint64_t kMessages = 800;
// One segment growing by doubling to kMessages records of 123 bytes
// (about 98 KB) reallocates 11 times; the rest is slack. A per-message
// allocation would take at least kMessages.
constexpr size_t kRegrowthBound = 32;

class MessageAllocTest : public testing::Test {
 protected:
  MessageAllocTest()
      : dev_(hdd_config()), io_(dev_), tree_(dev_, io_, config()) {
    // 128 KiB nodes with fanout 4 load into three levels: an internal root
    // over internal children over leaves.
    tree_.bulk_load(kLoaded, [](uint64_t i) {
      return std::make_pair(kv::encode_key(i, 16), kv::make_value(i, 100));
    });
    // Keys past the loaded range all route to the root's last child and,
    // below it, to that child's last child.
    for (uint64_t i = 0; i < kMessages; ++i) {
      keys_.push_back(kv::encode_key(kLoaded + i, 16));
      values_.push_back(kv::make_value(i, 100));
    }
  }

  static sim::HddConfig hdd_config() {
    sim::HddConfig cfg;
    cfg.capacity_bytes = 1ULL * kGiB;
    return cfg;
  }
  static BeTreeConfig config() {
    BeTreeConfig tc;
    tc.node_bytes = 128 * kKiB;
    tc.target_fanout = 4;
    return tc;
  }

  sim::HddDevice dev_;
  sim::IoContext io_;
  FlushableBeTree tree_;
  std::vector<std::string> keys_;
  std::vector<std::string> values_;
};

TEST_F(MessageAllocTest, PutsIntoAnInternalRootAllocateOnlyToRegrow) {
  ASSERT_EQ(tree_.height(), 3u);
  // Bring the root into the cache before counting.
  ASSERT_TRUE(tree_.try_get(keys_[0]).ok());
  start_counting();
  for (uint64_t i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(tree_.try_put(keys_[i], values_[i]).ok());
  }
  EXPECT_LT(stop_counting(), kRegrowthBound);
  EXPECT_EQ(tree_.op_stats().flushes, 0u);
}

TEST_F(MessageAllocTest, FlushIntoAnInternalChildAllocatesOnlyToRegrow) {
  ASSERT_EQ(tree_.height(), 3u);
  for (uint64_t i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(tree_.try_put(keys_[i], values_[i]).ok());
  }
  // Bring the root-to-leaf path into the cache before counting.
  ASSERT_TRUE(tree_.try_get(keys_[0]).ok());
  ASSERT_EQ(tree_.op_stats().flushes, 0u);
  start_counting();
  ASSERT_TRUE(tree_.flush_root().ok());
  EXPECT_LT(stop_counting(), kRegrowthBound);
  EXPECT_EQ(tree_.op_stats().flushes, 1u);
  EXPECT_EQ(tree_.op_stats().messages_moved, kMessages);
  EXPECT_EQ(tree_.get(keys_[kMessages - 1]), values_[kMessages - 1]);
}

}  // namespace
}  // namespace damkit::betree
