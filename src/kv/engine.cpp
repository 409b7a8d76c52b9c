#include "kv/engine.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "betree_opt/opt_betree.h"
#include "node/sorted_page.h"

namespace damkit::kv {

namespace {

// ---------------------------------------------------------------------------
// PDAM B-tree
// ---------------------------------------------------------------------------

// The §8 structure is a *static* index; the adapter makes it a dictionary
// the LSM way: an in-memory write buffer (mutations + tombstones) over a
// sorted base run. Merging the buffer rewrites the base sequentially and
// recomputes the PdamBTree geometry over the new base (global height,
// PB-node height, blocks per node), which point descents charge against
// the device. Offsets are a deterministic hash of (level, node index) into
// a bounded device window — the index is a cost model, not a byte store,
// exactly like the PdamBTree itself.
class PdamEngine final : public Dictionary {
 public:
  PdamEngine(sim::IoContext& io, const PdamEngineConfig& config)
      : io_(&io), cfg_(config) {}

  std::string_view name() const override { return "pdam"; }
  const Capabilities& capabilities() const override {
    static constexpr Capabilities kCaps{};  // RMW upsert, native bulk load
    return kCaps;
  }

  Status try_put(std::string_view key, std::string_view value) override {
    DAMKIT_RETURN_IF_ERROR(node::check_key_size(key));
    ++puts_;
    return buffer_insert(key, std::string(value));
  }
  StatusOr<std::optional<std::string>> try_get(std::string_view key) override {
    ++gets_;
    return lookup(key);
  }
  Status try_erase(std::string_view key) override {
    DAMKIT_RETURN_IF_ERROR(node::check_key_size(key));
    ++erases_;
    return buffer_insert(key, std::nullopt);
  }
  // Read-modify-write: the embedded read and write count as the upsert.
  Status try_upsert(std::string_view key, int64_t delta) override {
    DAMKIT_RETURN_IF_ERROR(node::check_key_size(key));
    ++upserts_;
    StatusOr<std::optional<std::string>> current = lookup(key);
    DAMKIT_RETURN_IF_ERROR(current.status());
    return buffer_insert(key, add_to_counter(*current, delta));
  }

  StatusOr<std::vector<std::pair<std::string, std::string>>> try_range_scan(
      std::string_view lo, size_t limit) override {
    ++scans_;
    std::vector<std::pair<std::string, std::string>> out;
    const auto emit = [&out](std::string_view key, std::string_view value) {
      out.emplace_back(key, value);
    };
    DAMKIT_RETURN_IF_ERROR(charge_scan(lo, merge_walk(lo, limit, emit)));
    return out;
  }

  void bulk_load(
      uint64_t count,
      const std::function<std::pair<std::string, std::string>(uint64_t)>& item)
      override {
    DAMKIT_CHECK_MSG(base_.empty() && buffer_.empty(),
                     "bulk_load requires an empty dictionary");
    for (uint64_t i = 0; i < count; ++i) {
      const std::pair<std::string, std::string> kv = item(i);
      base_.append(kv.first, kv.second);  // CHECKs strictly ascending keys
    }
    update_geometry();
    DAMKIT_CHECK_OK(charge_base_write(base_.live_bytes()));
  }

  Status checkpoint() override {
    if (buffer_.empty()) return Status();
    return merge_buffer();
  }

  void set_retry_policy(const blockdev::RetryPolicy& policy) override {
    io_->set_retry_policy(policy);
  }
  blockdev::RetryCounters retry_counters() const override {
    return io_->retry_counters();
  }

  size_t height() const override { return descent_levels(); }
  double cache_hit_rate() const override { return 0.0; }
  void check_invariants() override {
    for (size_t i = 1; i < base_.count(); ++i) {
      DAMKIT_CHECK(compare(base_.key(i - 1), base_.key(i)) < 0);
    }
  }
  void export_metrics(stats::MetricsRegistry& reg,
                      std::string_view prefix) const override {
    const std::string p(prefix);
    reg.add(p + "puts", puts_);
    reg.add(p + "gets", gets_);
    reg.add(p + "erases", erases_);
    reg.add(p + "upserts", upserts_);
    reg.add(p + "scans", scans_);
    reg.add(p + "buffer_merges", buffer_merges_);
    reg.add(p + "merge_bytes_written", merge_bytes_written_);
    reg.add(p + "node_reads", node_reads_);
    reg.set(p + "height", static_cast<double>(descent_levels()));
    reg.set(p + "base_entries", static_cast<double>(base_.count()));
    reg.set(p + "buffer_entries", static_cast<double>(buffer_.size()));
    reg.set(p + "buffer_bytes", static_cast<double>(buffer_bytes_));
  }

 private:
  // Absorb one mutation (nullopt = tombstone); merge once over budget. A
  // buffered entry is charged its base-run record size.
  Status buffer_insert(std::string_view key,
                       std::optional<std::string> value) {
    const uint64_t bytes = node::KvRecord::encoded_size(
        key.size(), value.has_value() ? value->size() : 0);
    if (buffer_.insert_or_assign(std::string(key), std::move(value)).second) {
      buffer_bytes_ += bytes;
    }
    if (buffer_bytes_ > cfg_.buffer_bytes) return merge_buffer();
    return Status();
  }

  StatusOr<std::optional<std::string>> lookup(std::string_view key) {
    const auto hit = buffer_.find(key);
    if (hit != buffer_.end()) return hit->second;  // value or tombstone
    const size_t rank = base_.lower_bound(key);
    if (!base_.empty()) {
      DAMKIT_RETURN_IF_ERROR(charge_descent(rank));
    }
    if (!base_.key_equals(rank, key)) return std::optional<std::string>();
    return std::optional<std::string>(std::string(base_.value(rank)));
  }

  int descent_levels() const {
    if (base_.empty()) return 0;
    const int node_h = std::max(1, geometry_.node_height);
    return std::max(1, (geometry_.global_height + node_h - 1) / node_h);
  }

  uint64_t node_bytes() const {
    return geometry_.node_blocks * cfg_.tree.block_bytes;
  }

  // Deterministic device offset for the PB-node at (level, rank path).
  uint64_t node_offset(int level, uint64_t rank) const {
    const int node_h = std::max(1, geometry_.node_height);
    const int depth = std::min(geometry_.global_height, (level + 1) * node_h);
    const int shift = geometry_.global_height - depth;
    const uint64_t node_index = shift >= 64 ? 0 : rank >> shift;
    const uint64_t nb = node_bytes();
    const uint64_t slots = std::max<uint64_t>(1, cfg_.region_bytes / nb);
    const uint64_t mixed =
        (static_cast<uint64_t>(level) + 1) * 0x9e3779b97f4a7c15ULL +
        node_index;
    return cfg_.base_offset + (mixed % slots) * nb;
  }

  Status charge_descent(uint64_t rank) {
    const int levels = descent_levels();
    for (int l = 0; l < levels; ++l) {
      const uint64_t off = node_offset(l, rank);
      ++node_reads_;
      DAMKIT_RETURN_IF_ERROR(io_->touch_read_checked(off, node_bytes()));
    }
    return Status();
  }

  // The one walk of the buffer over the base, in key order from `lo`: the
  // first `limit` live entries go to emit(key, value). A buffered entry
  // shadows the base record with its key, and a tombstone emits nothing.
  // Returns the base records passed, shadowed ones included.
  template <typename Emit>
  uint64_t merge_walk(std::string_view lo, size_t limit, Emit&& emit) const {
    uint64_t base_passed = 0;
    size_t emitted = 0;
    size_t bi = base_.lower_bound(lo);
    auto di = buffer_.lower_bound(lo);
    while (emitted < limit && (bi < base_.count() || di != buffer_.end())) {
      if (di == buffer_.end() ||
          (bi < base_.count() && compare(base_.key(bi), di->first) < 0)) {
        emit(base_.key(bi), base_.value(bi));
        ++emitted;
        ++bi;
        ++base_passed;
        continue;
      }
      if (base_.key_equals(bi, di->first)) {
        ++bi;
        ++base_passed;
      }
      if (di->second.has_value()) {
        emit(di->first, *di->second);
        ++emitted;
      }
      ++di;
    }
    return base_passed;
  }

  uint64_t scan_run_bytes(uint64_t base_entries) const {
    if (base_entries == 0 || base_.empty()) return 0;
    // Approximate the leaf run with the base's mean entry size; the flat
    // run makes the total a gauge read instead of an O(n) walk.
    const uint64_t mean =
        std::max<uint64_t>(1, base_.live_bytes() / base_.count());
    const uint64_t b = cfg_.tree.block_bytes;
    return (base_entries * mean + b - 1) / b * b;
  }

  Status charge_scan(std::string_view lo, uint64_t base_entries) {
    if (base_entries == 0 || base_.empty()) return Status();
    const uint64_t rank = base_.lower_bound(lo);
    DAMKIT_RETURN_IF_ERROR(charge_descent(rank));
    const uint64_t off = node_offset(descent_levels() - 1, rank);
    return io_->touch_read_checked(off, scan_run_bytes(base_entries));
  }

  // A failed base write leaves the buffer and the old base in place.
  Status merge_buffer() {
    node::KvPage merged;
    const auto emit = [&merged](std::string_view key, std::string_view value) {
      merged.append(key, value);
    };
    merge_walk("", SIZE_MAX, emit);
    DAMKIT_RETURN_IF_ERROR(charge_base_write(merged.live_bytes()));
    base_ = std::move(merged);
    buffer_.clear();
    buffer_bytes_ = 0;
    ++buffer_merges_;
    update_geometry();
    return Status();
  }

  Status charge_base_write(uint64_t bytes) {
    merge_bytes_written_ += bytes;
    const uint64_t chunk = std::max<uint64_t>(cfg_.tree.block_bytes, 1);
    for (uint64_t off = 0; off < bytes; off += chunk) {
      const uint64_t at = cfg_.base_offset + off % cfg_.region_bytes;
      const uint64_t len = std::min(chunk, bytes - off);
      DAMKIT_RETURN_IF_ERROR(io_->touch_write_checked(at, len));
    }
    return Status();
  }

  // Charges read the geometry only while the base is non-empty.
  void update_geometry() {
    if (!base_.empty()) {
      geometry_ = pdam_tree::pdam_geometry(base_.count(), cfg_.tree);
    }
  }

  sim::IoContext* io_;
  PdamEngineConfig cfg_;

  node::KvPage base_;  // sorted base run; live_bytes() is its byte total
  // nullopt = tombstone.
  std::map<std::string, std::optional<std::string>, std::less<>> buffer_;
  uint64_t buffer_bytes_ = 0;
  pdam_tree::PdamGeometry geometry_;  // of the base, while non-empty

  uint64_t puts_ = 0, gets_ = 0, erases_ = 0, upserts_ = 0, scans_ = 0;
  uint64_t buffer_merges_ = 0, merge_bytes_written_ = 0, node_reads_ = 0;
};

}  // namespace

std::string_view engine_kind_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::kBTree:
      return "btree";
    case EngineKind::kBeTree:
      return "betree";
    case EngineKind::kOptBeTree:
      return "opt-betree";
    case EngineKind::kLsm:
      return "lsm";
    case EngineKind::kPdam:
      return "pdam";
  }
  return "unknown";
}

std::optional<EngineKind> parse_engine_kind(std::string_view name) {
  for (const EngineKind kind : kAllEngineKinds) {
    if (engine_kind_name(kind) == name) return kind;
  }
  return std::nullopt;
}

void set_base_offset(EngineConfig& config, uint64_t offset) {
  config.btree.base_offset = offset;
  config.betree.base_offset = offset;
  config.lsm.base_offset = offset;
  config.pdam.base_offset = offset;
}

std::unique_ptr<Dictionary> make_engine(EngineKind kind, sim::Device& dev,
                                        sim::IoContext& io,
                                        const EngineConfig& config) {
  // Resolve the factory-level codec once (kDefault consults DAMKIT_CODEC)
  // and push it into the per-tree sub-configs so the built tree is
  // indistinguishable from a hand-built one with that codec.
  EngineConfig cfg = config;
  const blockdev::CodecKind codec = blockdev::resolve_codec_kind(cfg.codec);
  cfg.btree.codec = codec;
  cfg.betree.codec = codec;
  cfg.lsm.codec = codec;
  switch (kind) {
    case EngineKind::kBTree:
      return std::make_unique<btree::BTree>(dev, io, cfg.btree);
    case EngineKind::kBeTree:
      return std::make_unique<betree::BeTree>(dev, io, cfg.betree);
    case EngineKind::kOptBeTree:
      return std::make_unique<betree_opt::OptBeTree>(dev, io, cfg.betree);
    case EngineKind::kLsm:
      return std::make_unique<lsm::LsmTree>(dev, io, cfg.lsm);
    case EngineKind::kPdam:
      return std::make_unique<PdamEngine>(io, cfg.pdam);
  }
  DAMKIT_CHECK_MSG(false, "unknown engine kind");
  return nullptr;
}

}  // namespace damkit::kv
