#include "pdam_tree/pdam_btree.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "pdam_tree/veb_layout.h"

namespace damkit::pdam_tree {

namespace {

/// Blocks that hold a complete pivot tree of height `h`.
uint64_t blocks_for_height(int h, uint64_t slots_per_block) {
  return ((1ULL << h) - 1 + slots_per_block - 1) / slots_per_block;
}

}  // namespace

PdamGeometry pdam_geometry(uint64_t keys, const PdamTreeConfig& config) {
  DAMKIT_CHECK(keys >= 1);
  DAMKIT_CHECK(config.parallelism >= 1);
  DAMKIT_CHECK(config.block_bytes >= config.slot_bytes);
  PdamGeometry g;
  g.global_height = 1;
  while ((1ULL << g.global_height) < keys) ++g.global_height;

  const uint64_t slots_per_block = config.block_bytes / config.slot_bytes;
  const uint64_t node_slots =
      static_cast<uint64_t>(config.parallelism) * slots_per_block;
  // Largest complete pivot tree fitting in a PB node: 2^h - 1 <= node_slots.
  g.node_height = std::clamp(63 - std::countl_zero(node_slots + 1), 1,
                             g.global_height);
  g.node_blocks = blocks_for_height(g.node_height, slots_per_block);
  return g;
}

PdamBTree::PdamBTree(std::vector<uint64_t> sorted_keys, PdamTreeConfig config)
    : keys_(std::move(sorted_keys)),
      config_(config),
      geometry_(pdam_geometry(keys_.size(), config_)),
      slots_per_block_(config_.block_bytes / config_.slot_bytes) {
  DAMKIT_CHECK(std::is_sorted(keys_.begin(), keys_.end()));

  // Precompute layout tables for every node height that occurs: the full
  // height and, if H is not a multiple of h, the bottom remainder.
  layout_by_height_.resize(static_cast<size_t>(geometry_.node_height) + 1);
  auto build = [&](int h) {
    if (h >= 1 && layout_by_height_[static_cast<size_t>(h)].empty()) {
      layout_by_height_[static_cast<size_t>(h)] =
          (config_.layout == NodeLayout::kVeb) ? veb_positions(h)
                                               : bfs_positions(h);
    }
  };
  build(geometry_.node_height);
  const int rem = geometry_.global_height % geometry_.node_height;
  if (rem != 0) build(rem);
}

uint64_t PdamBTree::pivot(uint64_t g, int d) const {
  // Node g at depth d covers padded leaves [(g - 2^d)·2^(H-d), +2^(H-d)).
  const uint64_t span = 1ULL << (geometry_.global_height - d);
  const uint64_t start = (g - (1ULL << d)) * span;
  return key_at(start + span / 2 - 1);
}

uint64_t PdamBTree::lower_bound(uint64_t key) const {
  uint64_t g = 1;
  for (int d = 0; d < geometry_.global_height; ++d) {
    g = (key <= pivot(g, d)) ? 2 * g : 2 * g + 1;
  }
  return g - (1ULL << geometry_.global_height);
}

uint64_t PdamBTree::block_of_local(uint64_t l, int h) const {
  const auto& table = layout_by_height_[static_cast<size_t>(h)];
  return table[l - 1] / slots_per_block_;
}

namespace {

/// The device's P block-slots per step, exposed as one shared
/// submission/completion queue that all k clients draw from. grant(i) is
/// the slot budget the queue admits for client i in the current step:
/// floor(P/k) each plus one of the P mod k leftover slots, rotated one
/// position per step so no client is systematically favoured. The queue
/// is the single point deciding what the device serves; it also counts
/// the read-ahead runs completed (the CQ side).
class StepSlotQueue {
 public:
  StepSlotQueue(int p, int k) : p_(p), k_(k) {}

  int grant(int client) const {
    const int base = p_ / k_;
    const int extra = p_ % k_;
    const bool gets_leftover =
        (static_cast<uint64_t>(client) + rotate_) % static_cast<uint64_t>(k_) <
        static_cast<uint64_t>(extra);
    return base + (gets_leftover ? 1 : 0);
  }

  void complete_run() { ++runs_; }
  void next_step() { ++rotate_; }
  uint64_t runs() const { return runs_; }

 private:
  int p_;
  int k_;
  uint64_t rotate_ = 0;
  uint64_t runs_ = 0;
};

}  // namespace

PdamBTree::RunResult PdamBTree::run_queries(int k, uint64_t queries_per_client,
                                            uint64_t seed) const {
  DAMKIT_CHECK(k >= 1);
  struct Client {
    uint64_t remaining;     // queries left (including the active one)
    bool active = false;    // a query is in flight
    uint64_t key = 0;
    uint64_t g = 1;         // global BST position
    int depth = 0;
    uint64_t node_root = 1;  // global index of the current PB-node's root
    uint64_t local = 1;      // local BFS position within the node
    int local_height = 0;    // pivot levels in the current node
    std::vector<bool> fetched;  // blocks of the current node in cache
    Rng rng{0};
  };

  const int full_h = geometry_.node_height;
  auto node_height_at = [&](int depth) {
    return std::min(full_h, geometry_.global_height - depth);
  };

  std::vector<Client> clients(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    auto& c = clients[static_cast<size_t>(i)];
    c.remaining = queries_per_client;
    c.rng.reseed(seed + static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ULL);
    c.fetched.assign(geometry_.node_blocks, false);
  }

  RunResult result;
  StepSlotQueue queue(config_.parallelism, k);

  auto start_query = [&](Client& c) {
    c.active = true;
    c.key = c.rng.next();
    c.g = 1;
    c.depth = 0;
    c.node_root = 1;
    c.local = 1;
    c.local_height = node_height_at(0);
    std::fill(c.fetched.begin(), c.fetched.end(), false);
  };

  bool any = false;
  for (auto& c : clients) {
    if (c.remaining > 0) {
      start_query(c);
      any = true;
    }
  }

  while (any) {
    ++result.steps;
    for (int i = 0; i < k; ++i) {
      Client& c = clients[static_cast<size_t>(i)];
      if (!c.active) continue;
      const int budget = queue.grant(i);
      bool fetched_this_step = false;

      for (;;) {
        if (c.depth == geometry_.global_height) {
          // Query answered; immediately start the next one (closed loop),
          // but its first block waits for a future step.
          ++result.queries;
          --c.remaining;
          c.active = false;
          if (c.remaining > 0) start_query(c);
          break;
        }
        const uint64_t b = block_of_local(c.local, c.local_height);
        if (!c.fetched[b]) {
          if (fetched_this_step || budget == 0) break;  // wait for next step
          // One contiguous read-ahead run per step: [b, b + budget).
          const uint64_t blocks_in_node =
              blocks_for_height(c.local_height, slots_per_block_);
          const uint64_t end =
              std::min(b + static_cast<uint64_t>(budget), blocks_in_node);
          for (uint64_t j = b; j < end; ++j) c.fetched[j] = true;
          result.blocks_fetched += end - b;
          fetched_this_step = true;
          queue.complete_run();
        }
        // Compare and descend one level.
        c.g = (c.key <= pivot(c.g, c.depth)) ? 2 * c.g : 2 * c.g + 1;
        ++c.depth;
        const int local_depth =
            63 - std::countl_zero(c.local);  // depth of local within node
        if (local_depth + 1 == c.local_height) {
          // Leaving this PB-node: the global position we just arrived at
          // is the root of the child node one level of nodes down.
          c.node_root = c.g;
          c.local = 1;
          c.local_height = node_height_at(c.depth);
          std::fill(c.fetched.begin(), c.fetched.end(), false);
        } else {
          c.local = (c.g & 1ULL) ? 2 * c.local + 1 : 2 * c.local;
        }
      }
    }
    queue.next_step();
    any = false;
    for (auto& c : clients) {
      if (c.active) {
        any = true;
        break;
      }
    }
  }
  result.block_fetch_runs = queue.runs();
  return result;
}

}  // namespace damkit::pdam_tree
