// The affine-optimized Bε-tree of Theorem 9.
//
// Three changes versus the standard Bε-tree turn the whole-node query cost
// (1 + αB)·log_F(N/M) into (1 + αB/F + αF)·log_F(N/M)(1 + o(1)) without
// hurting inserts:
//
//  1. Per-child buffer segments are capped at B/F bytes: whenever a
//     child's pending messages exceed the cap, that child is flushed even
//     if the node as a whole still fits. Every segment a query must read
//     is therefore ≤ B/F.
//  2. A node's pivots are materialized next to the buffer segment for
//     that child in its *parent* (in our simulation: the descent already
//     knows the child index before issuing the child IO, so each level
//     costs one IO of pivot-block + one-segment size instead of a whole
//     node).
//  3. Leaves are read at basement granularity (B/F chunks), TokuDB-style.
//
// Inserts, deletes, upserts, flushes and range scans use the standard
// whole-node IO discipline inherited from BeTree — Theorem 9 leaves the
// insert bound unchanged.
//
// Paper simplification note (recorded in DESIGN.md): the theorem's
// weight-balanced subtree rebuilds serve to pin the fanout to (1±o(1))F;
// our size-based splitting keeps fanout within [F/2, F], a constant-factor
// band, which is what the measured per-level IO size depends on.
#pragma once

#include "betree/betree.h"

namespace damkit::betree_opt {

struct OptBeTreeStats {
  uint64_t segment_reads = 0;       // sub-node query IOs issued
  uint64_t segment_bytes_read = 0;  // total bytes of those IOs
  uint64_t residency_upgrades = 0;  // partial nodes later read in full
};

class OptBeTree final : public betree::BeTree {
 public:
  OptBeTree(sim::Device& dev, sim::IoContext& io, betree::BeTreeConfig config);

  std::string_view name() const override { return "opt-betree"; }

  /// Point query using sub-node IOs: per internal level, one IO covering
  /// the child's pivot block plus the one buffer segment on the query
  /// path; at the leaf, one basement chunk.
  StatusOr<std::optional<std::string>> try_get(std::string_view key) override;

  /// Per-child buffer cap B/F in bytes.
  uint64_t segment_cap_bytes() const { return segment_cap_; }

  const OptBeTreeStats& opt_stats() const { return opt_stats_; }

  /// Base Bε-tree metrics plus the Theorem-9 query-path counters
  /// (segment_reads, segment_bytes_read, residency_upgrades) and the mean
  /// segment-read size.
  void export_metrics(stats::MetricsRegistry& reg,
                      std::string_view prefix) const override;

 protected:
  /// Structural access requires the whole node: upgrade partially-charged
  /// residents by charging the remaining bytes as one IO.
  StatusOr<NodeRef> try_fetch(uint64_t id) override;

  /// Theorem 9 invariant: flush as soon as any child's segment exceeds B/F.
  bool flush_pressure(const betree::BeTreeNode& node) const override;

 private:
  /// Per-node flush cap: max(B/F, fair share for under-full nodes).
  uint64_t dynamic_cap(const betree::BeTreeNode& node) const;

  /// Bytes of the node's index region (header + child table + pivot keys)
  /// — the pivot-block read of a query-path descent (the αF term).
  uint64_t index_block_bytes(const betree::BeTreeNode& node) const;
  uint64_t leaf_segment_bytes(const betree::BeTreeNode& leaf) const;
  /// Which basement chunk of `leaf` the key falls into.
  uint32_t leaf_chunk_of(const betree::BeTreeNode& leaf,
                         std::string_view key) const;
  /// One node-relative sub-extent of a query-path charge.
  struct IoPart {
    uint64_t offset = 0;
    uint64_t length = 0;
  };
  /// Charge the sub-node IOs in `parts` for segment `seg` as ONE device
  /// batch (internal levels issue pivot block + buffer segment together)
  /// and (re-)account the cache entry at the node's accumulated charge.
  /// On a non-OK return nothing is charged and the residency/cache state
  /// is unchanged.
  Status charge_segment(uint64_t id, const NodeRef& node, uint32_t seg,
                        std::span<const IoPart> parts, bool newly_loaded);

  uint64_t segment_cap_;
  OptBeTreeStats opt_stats_;
};

}  // namespace damkit::betree_opt
