// make_engine: construct any of the five dictionaries behind one
// kv::Dictionary interface. The B-tree, both Bε-trees, and the LSM-tree
// implement kv::Dictionary themselves, so make_engine returns the tree
// itself — a factory-built engine is a hand-built one.
//
// The PDAM B-tree is a static structure with no device of its own; its
// engine is the one adapter: an in-memory write buffer (mutations +
// tombstones) over a sorted base run that charges device IO from the
// PdamBTree geometry of the base — see PdamEngineConfig.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "betree/betree.h"
#include "blockdev/codec.h"
#include "btree/btree.h"
#include "kv/dictionary.h"
#include "lsm/lsm_tree.h"
#include "pdam_tree/pdam_btree.h"
#include "sim/device.h"

namespace damkit::kv {

enum class EngineKind : uint8_t { kBTree, kBeTree, kOptBeTree, kLsm, kPdam };

/// "btree", "betree", "opt-betree", "lsm", "pdam".
std::string_view engine_kind_name(EngineKind kind);
/// Inverse of engine_kind_name; nullopt on an unknown name.
std::optional<EngineKind> parse_engine_kind(std::string_view name);
/// All five kinds, in declaration order (sweep support).
inline constexpr EngineKind kAllEngineKinds[] = {
    EngineKind::kBTree, EngineKind::kBeTree, EngineKind::kOptBeTree,
    EngineKind::kLsm, EngineKind::kPdam};

/// PDAM engine knobs. `tree` sets the index geometry (P, B, slot size);
/// the write buffer absorbs mutations in memory (the memtable analog)
/// and is merged into the base run — one sequential device write — when
/// it exceeds `buffer_bytes` or on flush/checkpoint. Point descents
/// charge one node-sized read per PB-node level; scans charge the leaf
/// run sequentially.
struct PdamEngineConfig {
  pdam_tree::PdamTreeConfig tree;
  uint64_t buffer_bytes = 4 * 1024 * 1024;
  uint64_t base_offset = 0;
  /// Device window the charged node reads fall in (offsets wrap modulo
  /// this region; the PDAM index is a cost model, not a byte store).
  uint64_t region_bytes = 1ULL << 30;
};

/// Per-engine configuration bundle: exactly the concrete tree configs, so
/// factory-built engines are indistinguishable from hand-built trees.
/// Only the sub-config matching the requested kind is read.
struct EngineConfig {
  btree::BTreeConfig btree;
  betree::BeTreeConfig betree;
  lsm::LsmConfig lsm;
  PdamEngineConfig pdam;
  /// Block codec for the built engine's stored images. kDefault resolves
  /// via the DAMKIT_CODEC environment variable (identity when unset), so a
  /// CI leg can flip every factory-built engine without code changes. The
  /// resolved kind overrides the per-tree `codec` sub-config fields; the
  /// PDAM engine is touch-only (a cost model, not a byte store) and
  /// ignores it.
  blockdev::CodecKind codec = blockdev::CodecKind::kDefault;
};

/// Place every engine kind's extent space at `offset` (shard regions).
void set_base_offset(EngineConfig& config, uint64_t offset);

/// Builds the requested engine on `dev`/`io`.
std::unique_ptr<Dictionary> make_engine(EngineKind kind, sim::Device& dev,
                                        sim::IoContext& io,
                                        const EngineConfig& config);

}  // namespace damkit::kv
