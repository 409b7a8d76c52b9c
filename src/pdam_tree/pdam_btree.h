// The §8 construction: a static B-tree with nodes of size P·B whose
// in-node pivot tree is stored in van Emde Boas block order, driven by a
// PDAM step scheduler that divides the device's P block-slots among k
// concurrent query clients.
//
// Pivots are implicit (computed from the sorted key array on demand);
// "blocks" exist purely as the unit of PDAM IO accounting, which is the
// point: the experiment measures *time steps*, the PDAM's native cost.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace damkit::pdam_tree {

enum class NodeLayout : uint8_t { kVeb, kBfs };

struct PdamTreeConfig {
  uint64_t block_bytes = 4096;  // B
  int parallelism = 8;          // P: block-slots the device serves per step
  uint64_t slot_bytes = 16;     // pivot-slot footprint (key + child metadata)
  NodeLayout layout = NodeLayout::kVeb;
};

/// The shape of a PdamBTree: all the PDAM engine (kv/engine.h) charges
/// its IO from.
struct PdamGeometry {
  int global_height = 0;     // H: padded leaf count = 2^H
  int node_height = 0;       // h: pivot levels per PB node
  uint64_t node_blocks = 0;  // blocks per node (≈ P)
};

/// The geometry of a PdamBTree over `keys` (>= 1) keys under `config`.
PdamGeometry pdam_geometry(uint64_t keys, const PdamTreeConfig& config);

/// Static dictionary over sorted u64 keys.
class PdamBTree {
 public:
  PdamBTree(std::vector<uint64_t> sorted_keys, PdamTreeConfig config);

  /// lower_bound rank of `key` (index of first key >= key; keys_.size() if
  /// none). Pure in-memory search used as the correctness oracle and by
  /// the step-driven clients.
  uint64_t lower_bound(uint64_t key) const;

  const PdamGeometry& geometry() const { return geometry_; }

  struct RunResult {
    uint64_t steps = 0;
    uint64_t queries = 0;
    uint64_t block_fetch_runs = 0;  // read-ahead runs issued
    uint64_t blocks_fetched = 0;    // block-slots consumed across all runs
    double throughput() const {
      return steps == 0 ? 0.0
                        : static_cast<double>(queries) /
                              static_cast<double>(steps);
    }
    /// Fraction of the P block-slots per step the clients actually used —
    /// the measured occupancy of the PDAM's parallel budget.
    double slot_occupancy(int parallelism) const {
      return steps == 0 || parallelism <= 0
                 ? 0.0
                 : static_cast<double>(blocks_fetched) /
                       (static_cast<double>(steps) *
                        static_cast<double>(parallelism));
    }
  };

  /// Run `k` concurrent clients, each answering `queries_per_client`
  /// uniform-random lower_bound queries, under the PDAM: every time step
  /// the device serves P block-slots, split across clients (rotating the
  /// remainder for fairness). Each client issues at most one contiguous
  /// read-ahead run per step and walks as far as fetched blocks allow.
  RunResult run_queries(int k, uint64_t queries_per_client,
                        uint64_t seed) const;

 private:
  /// Pivot of the global BST node `g` at depth `d`: max key of its left
  /// subtree (padded tail reads as +inf).
  uint64_t pivot(uint64_t g, int d) const;
  uint64_t key_at(uint64_t index) const {
    return index < keys_.size() ? keys_[index] : ~0ULL;
  }

  /// Storage block (within the node) of local BFS position `l` for a node
  /// of height `h` (h is node_height_ or the shorter bottom-level height).
  uint64_t block_of_local(uint64_t l, int h) const;

  std::vector<uint64_t> keys_;
  PdamTreeConfig config_;
  PdamGeometry geometry_;
  uint64_t slots_per_block_ = 0;
  // Layout position tables per distinct node height (full and the bottom
  // remainder); index by height via a small map-like vector.
  std::vector<std::vector<uint32_t>> layout_by_height_;
};

}  // namespace damkit::pdam_tree
