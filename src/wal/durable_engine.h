// DurableEngine: crash-consistent durability for ANY kv::Dictionary —
// the five trees and the ShardedEngine router alike — as a transparent
// wrapper.
//
// Write path: every mutation (put/erase/upsert) appends one WAL record
// (LSN = its 1-based mutation index since birth) before touching the
// inner engine; group commit batches the log writes through the SQ/CQ
// submit_batch path. Reads forward untouched. checkpoint() makes the
// inner engine durable, serializes its full sorted contents into the
// double-slot SnapshotStore, and truncates the WAL at the checkpoint LSN.
//
// Recovery (static recover()) needs only the device bytes: load the
// newest verifiable snapshot, bulk_load a fresh inner engine from it,
// replay the WAL's valid prefix on top (skipping records the inner engine
// rejected live), and fence the log. It writes nothing else, so
// recovering twice yields bit-identical state. The durability contract:
// after a crash, exactly the mutations whose WAL records committed (a
// prefix, by LSN) survive.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "kv/dictionary.h"
#include "wal/snapshot.h"
#include "wal/wal.h"

namespace damkit::wal {

struct DurabilityConfig {
  WalConfig wal;
  SnapshotConfig snapshot;
  /// Auto-checkpoint once durable + buffered WAL bytes exceed this
  /// (0 = only explicit checkpoint()/flush() calls). Keep it well under
  /// wal.region_bytes or appends hit kResourceExhausted first.
  uint64_t checkpoint_wal_bytes = 16ULL << 20;
};

/// Places the WAL region and both snapshot slots at the top of a device,
/// away from engine extent space (engines grow from low offsets).
DurabilityConfig default_durability_config(uint64_t device_capacity_bytes);

struct RecoveryReport {
  uint64_t snapshot_entries = 0;
  uint64_t snapshot_lsn = 0;       // last LSN the snapshot covers
  uint64_t replayed_records = 0;   // WAL records applied on top
  uint64_t rejected_records = 0;   // of those, rejected as they were live
  uint64_t durable_lsn = 0;        // mutations that survived the crash
  bool torn_tail = false;          // log ended in a torn record
  uint64_t stale_records = 0;      // pre-truncation frames at the frontier
};

class DurableEngine final : public kv::Dictionary {
 public:
  /// Fresh engine over an empty region: resets the WAL (fence at base).
  /// `inner` must be empty and issue its IO through `io`.
  DurableEngine(std::unique_ptr<kv::Dictionary> inner, sim::Device& dev,
                sim::IoContext& io, const DurabilityConfig& cfg);
  ~DurableEngine() override;

  /// Rebuild from device bytes after a crash: newest valid snapshot +
  /// WAL replay to the consistent prefix. `make_inner` must build a fresh
  /// EMPTY engine of the same kind/config as the crashed one.
  static StatusOr<std::unique_ptr<DurableEngine>> recover(
      const std::function<std::unique_ptr<kv::Dictionary>()>& make_inner,
      sim::Device& dev, sim::IoContext& io, const DurabilityConfig& cfg,
      RecoveryReport* report);

  std::string_view name() const override { return name_; }
  const kv::Capabilities& capabilities() const override {
    return inner_->capabilities();
  }

  Status try_put(std::string_view key, std::string_view value) override;
  StatusOr<std::optional<std::string>> try_get(std::string_view key) override {
    return inner_->try_get(key);
  }
  Status try_erase(std::string_view key) override;
  Status try_upsert(std::string_view key, int64_t delta) override;
  StatusOr<std::vector<std::pair<std::string, std::string>>> try_range_scan(
      std::string_view lo, size_t limit) override {
    return inner_->try_range_scan(lo, limit);
  }
  /// Forwards to the inner engine while serializing the same ascending
  /// stream into an initial snapshot — one pass, no extra scan — then
  /// resets the WAL: a freshly loaded engine is immediately recoverable.
  void bulk_load(
      uint64_t count,
      const std::function<std::pair<std::string, std::string>(uint64_t)>& item)
      override;

  /// Commit the WAL and flush the inner engine, without a snapshot: every
  /// mutation is durable through the log (the one infallible form that is
  /// not CHECK_OK(checkpoint())).
  void flush() override;
  /// Commit the WAL, checkpoint the inner engine, write a snapshot to the
  /// alternate slot, truncate the WAL. Any failure leaves every layer
  /// retryable (the old snapshot slot stays authoritative until the new
  /// one's header lands).
  Status checkpoint() override;
  void abandon() override;

  /// Forwarded to the inner engine: the log and the snapshot store issue
  /// IO through the same IoContext.
  void set_retry_policy(const blockdev::RetryPolicy& policy) override {
    inner_->set_retry_policy(policy);
  }
  blockdev::RetryCounters retry_counters() const override {
    return inner_->retry_counters();
  }
  size_t height() const override { return inner_->height(); }
  double cache_hit_rate() const override { return inner_->cache_hit_rate(); }
  void check_invariants() override { inner_->check_invariants(); }
  /// Inner metrics under `prefix` untouched, plus wal.* / snapshot.* /
  /// recovery.* under the same prefix.
  void export_metrics(stats::MetricsRegistry& reg,
                      std::string_view prefix) const override;

  /// Mutations durably logged so far (the LSN high-water mark). After
  /// recover() this is exactly the prefix of mutations that survived.
  uint64_t durable_mutations() const { return log_.next_lsn() - 1; }
  const RecoveryReport& recovery_report() const { return recovery_; }
  uint64_t checkpoints() const { return checkpoints_; }
  WriteAheadLog& log() { return log_; }
  kv::Dictionary& inner() { return *inner_; }

 private:
  struct RecoverTag {};
  DurableEngine(RecoverTag, std::unique_ptr<kv::Dictionary> inner,
                sim::Device& dev, sim::IoContext& io,
                const DurabilityConfig& cfg);

  /// Log one mutation, then run `apply` (the inner engine's mutation)
  /// whenever the log took the record, and return the append's status.
  template <typename Apply>
  Status log_and_apply(WriteAheadLog::RecordType type, std::string_view key,
                       std::string_view value, Apply&& apply);
  Status maybe_auto_checkpoint();
  /// Serialize the inner engine's full contents ([u32 klen][u32 vlen]
  /// [key][value]...) via chunked try_range_scan.
  Status serialize_state(std::vector<uint8_t>* payload, uint64_t* entries);

  std::unique_ptr<kv::Dictionary> inner_;
  DurabilityConfig cfg_;
  WriteAheadLog log_;
  SnapshotStore snapshot_;
  std::string name_;
  uint64_t snapshot_seq_ = 0;  // last snapshot sequence written
  uint64_t checkpoints_ = 0;
  uint64_t auto_checkpoints_ = 0;
  bool in_checkpoint_ = false;
  RecoveryReport recovery_;  // zero for a fresh engine
  bool recovered_ = false;
};

/// Convenience: wrap `inner` fresh (the --wal switch).
std::unique_ptr<kv::Dictionary> make_durable(
    std::unique_ptr<kv::Dictionary> inner, sim::Device& dev,
    sim::IoContext& io, const DurabilityConfig& cfg);

}  // namespace damkit::wal
