// The uniform dictionary interface the paper's comparative experiments
// (§5–§8) need: one workload driven against B-tree, Bε-tree, optimized
// Bε-tree, LSM-tree, and PDAM B-tree under one cost model.
//
// The B-tree, both Bε-trees, and the LSM-tree implement this interface
// themselves, so a call through kv::Dictionary charges exactly the
// simulated time of the tree's own code (virtual dispatch is host-side
// only). Each engine implements one fallible surface — the try_* methods
// and checkpoint(); the CHECK-abort forms (put/get/erase/upsert/
// range_scan/flush) are written once, here, on top of it.
//
// Engines differ in what they support natively; the Capabilities
// descriptor records how each call is realized (e.g. a Bε-tree upsert is
// a blind message, a B-tree upsert is an emulated read-modify-write with
// identical counter semantics).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "blockdev/retry.h"
#include "stats/metrics.h"
#include "util/status.h"

namespace damkit::stats {
class TraceBuffer;  // declared for set_event_trace only; never defined
}  // namespace damkit::stats

namespace damkit::kv {

/// How an engine realizes the Dictionary contract.
struct Capabilities {
  /// Upserts are blind messages (no read IO). When false the engine
  /// emulates upsert as read-modify-write with the same 8-byte LE counter
  /// semantics, so results agree across engines and only the cost differs.
  bool native_upsert = false;
  /// bulk_load writes each node once, bottom-up. When false the engine
  /// emulates it with an ingest loop (e.g. the LSM memtable path).
  bool native_bulk_load = true;
  /// range_scan returns key-ordered results (true for every engine).
  bool ordered_scans = true;
  /// This dictionary routes across shards (see kv::make_sharded_engine).
  bool sharded = false;
  int shard_count = 1;
};

/// The 8-byte little-endian counter upserts maintain. A value that is not
/// exactly 8 bytes (or an absent key) decodes as zero.
std::string encode_counter(uint64_t v);
uint64_t decode_counter(std::string_view v);
/// The counter after an upsert of `delta` (absent = 0, arithmetic wraps):
/// what engines without native upserts write back.
std::string add_to_counter(const std::optional<std::string>& counter,
                           int64_t delta);

/// Abstract ordered key-value dictionary over a simulated device.
///
/// Keys are at most node::kMaxKeyBytes (65,535) bytes, the u16 key length of
/// every stored record: try_put, try_erase and try_upsert return
/// kInvalidArgument for a longer key, and bulk_load CHECKs it.
///
/// An engine issues all its IO through the sim::IoContext it was built
/// on, which retries every failed IO under one RetryPolicy and counts the
/// outcomes in one RetryCounters pair. The try_* methods surface a Status
/// once that policy is exhausted and never abort. kInvalidArgument (a key
/// or entry too large) depends on the arguments and the config alone and
/// changes nothing. checkpoint() is one fallible write-back attempt whose
/// failure leaves the remaining dirty state intact for a retry. The
/// infallible forms call their fallible twin and CHECK-abort with its
/// status (the non-faulting experiment path); flush() is the infallible
/// checkpoint.
class Dictionary {
 public:
  virtual ~Dictionary();

  Dictionary() = default;
  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;

  /// Engine name ("btree", "betree", "opt-betree", "lsm", "pdam", ...).
  virtual std::string_view name() const = 0;
  virtual const Capabilities& capabilities() const = 0;

  virtual void put(std::string_view key, std::string_view value);
  virtual Status try_put(std::string_view key, std::string_view value) = 0;

  virtual std::optional<std::string> get(std::string_view key);
  virtual StatusOr<std::optional<std::string>> try_get(
      std::string_view key) = 0;

  /// Delete (blind: engines that know whether the key existed discard it).
  virtual void erase(std::string_view key);
  virtual Status try_erase(std::string_view key) = 0;

  /// Add `delta` to the counter stored at `key` (absent = 0, wrap-around
  /// by design — encode_counter/decode_counter).
  virtual void upsert(std::string_view key, int64_t delta);
  virtual Status try_upsert(std::string_view key, int64_t delta) = 0;

  /// Up to `limit` pairs with key >= `lo`, in key order.
  virtual std::vector<std::pair<std::string, std::string>> range_scan(
      std::string_view lo, size_t limit);
  virtual StatusOr<std::vector<std::pair<std::string, std::string>>>
  try_range_scan(std::string_view lo, size_t limit) = 0;

  /// Build from `count` items in strictly ascending key order; item(i)
  /// supplies the i-th pair. The dictionary must be empty.
  virtual void bulk_load(
      uint64_t count,
      const std::function<std::pair<std::string, std::string>(uint64_t)>&
          item) = 0;

  /// Write back all dirty state: CHECK_OK(checkpoint()) by default.
  virtual void flush();
  /// One fallible checkpoint attempt: failed extents stay dirty (no data
  /// loss); calling again retries exactly the remaining set.
  virtual Status checkpoint() = 0;

  /// Crash teardown: drop all dirty in-memory state WITHOUT writing it
  /// back, so a dictionary whose device died can be destroyed without
  /// tripping the flush-on-destruction aborts. The dictionary must not be
  /// used afterwards except for destruction; recovery builds a fresh one.
  /// Default is a no-op (engines with no deferred write-back state).
  virtual void abandon();

  /// Set the retry policy of the engine's IoContext, and read that
  /// context's counters. Everything issuing IO through the same context
  /// shares both (other engines, a WAL, a crashed predecessor), so the
  /// counters cover all of its IO, not this engine's alone.
  virtual void set_retry_policy(const blockdev::RetryPolicy& policy) = 0;
  virtual blockdev::RetryCounters retry_counters() const = 0;

  /// Levels of the structure (B-tree height, LSM level count, PDAM
  /// node-levels per descent).
  virtual size_t height() const = 0;
  /// Buffer-pool hit rate, or 0 for engines without a node cache.
  virtual double cache_hit_rate() const = 0;

  /// Structural invariant check (test support); CHECK-aborts on violation.
  virtual void check_invariants() = 0;

  /// No-op, kept only because the benchmark's probe wrapper
  /// (perfbench/probe.h) overrides it. Served IO is recorded by
  /// sim::IoTrace (Device::set_trace).
  virtual void set_event_trace(stats::TraceBuffer* events);

  /// Export op counters, cache/store IO mix, and derived gauges under
  /// `prefix` (e.g. "btree.").
  virtual void export_metrics(stats::MetricsRegistry& reg,
                              std::string_view prefix) const = 0;
};

}  // namespace damkit::kv
