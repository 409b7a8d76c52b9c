// Probe: a forwarding kv::Dictionary decorator, the benchmark's only view
// into the engines. Every call goes straight to the wrapped dictionary;
// the probe adds, from outside the library:
//   - a digest of every read result (gets and scans), in the benchmark's
//     own hash, which the reference model reproduces independently;
//   - the simulated-clock advance of each op (IoContext::now() before and
//     after), for exact per-op simulated latency percentiles;
//   - when timing is on, host nanoseconds spent inside each call, by kind.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "kv/dictionary.h"
#include "sim/device.h"

namespace perfbench {

namespace kv = damkit::kv;
namespace sim = damkit::sim;

/// The benchmark's result hash: word-at-a-time multiply-xor, length-framed
/// so field boundaries count. Independent of the library's own digest.
inline uint64_t hash_word(uint64_t h, uint64_t w) {
  h ^= w;
  h *= 0x9E3779B97F4A7C15ULL;
  return h ^ (h >> 31);
}

inline uint64_t hash_bytes(uint64_t h, std::string_view s) {
  size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, s.data() + i, 8);
    h = hash_word(h, w);
  }
  uint64_t tail = 0;
  if (i < s.size()) std::memcpy(&tail, s.data() + i, s.size() - i);
  return hash_word(h, tail ^ (static_cast<uint64_t>(s.size()) << 56));
}

inline constexpr uint64_t kDigestSeed = 0x243F6A8885A308D3ULL;

enum OpKind : int { kGet, kPut, kErase, kUpsert, kScan, kOther, kKinds };

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Probe final : public kv::Dictionary {
 public:
  /// `io` is the context the wrapped engine charges; `digest` turns on the
  /// read-result digest (only the outermost probe of a stack hashes).
  Probe(std::unique_ptr<kv::Dictionary> inner, sim::IoContext& io, bool digest)
      : inner_(std::move(inner)), io_(&io), digest_on_(digest) {}

  /// Host-time attribution on/off (off: no clock reads at all).
  void set_timing(bool on) { timing_ = on; }
  /// Record each op's simulated latency into sim_latencies(); `expected`
  /// ops are reserved up front so the timed phase never regrows the array.
  void set_recording(bool on, size_t expected = 0) {
    recording_ = on;
    sim_lat_.reserve(sim_lat_.size() + expected);
  }

  uint64_t digest() const { return digest_; }
  uint64_t calls(int kind) const { return calls_[kind]; }
  uint64_t host_ns(int kind) const { return ns_[kind]; }
  uint64_t host_ns_total() const {
    uint64_t t = 0;
    for (uint64_t n : ns_) t += n;
    return t;
  }
  /// Bytes of keys and values returned by gets and scans.
  uint64_t returned_bytes() const { return returned_bytes_; }
  /// Key+value bytes of mutations (upserts count their 8-byte counter).
  uint64_t mutated_bytes() const { return mutated_bytes_; }
  const std::vector<uint64_t>& sim_latencies() const { return sim_lat_; }

  std::string_view name() const override { return inner_->name(); }
  const kv::Capabilities& capabilities() const override {
    return inner_->capabilities();
  }

  void put(std::string_view key, std::string_view value) override {
    Span s(this, kPut);
    mutated_bytes_ += key.size() + value.size();
    inner_->put(key, value);
  }
  damkit::Status try_put(std::string_view key,
                         std::string_view value) override {
    Span s(this, kPut);
    mutated_bytes_ += key.size() + value.size();
    return inner_->try_put(key, value);
  }

  std::optional<std::string> get(std::string_view key) override {
    std::optional<std::string> got;
    {
      Span s(this, kGet);
      got = inner_->get(key);
    }
    note_get(key, got);
    return got;
  }
  damkit::StatusOr<std::optional<std::string>> try_get(
      std::string_view key) override {
    damkit::StatusOr<std::optional<std::string>> got =
        damkit::Status::internal("unset");
    {
      Span s(this, kGet);
      got = inner_->try_get(key);
    }
    if (got.ok()) note_get(key, *got);
    return got;
  }

  void erase(std::string_view key) override {
    Span s(this, kErase);
    mutated_bytes_ += key.size();
    inner_->erase(key);
  }
  damkit::Status try_erase(std::string_view key) override {
    Span s(this, kErase);
    mutated_bytes_ += key.size();
    return inner_->try_erase(key);
  }

  void upsert(std::string_view key, int64_t delta) override {
    Span s(this, kUpsert);
    mutated_bytes_ += key.size() + 8;
    inner_->upsert(key, delta);
  }
  damkit::Status try_upsert(std::string_view key, int64_t delta) override {
    Span s(this, kUpsert);
    mutated_bytes_ += key.size() + 8;
    return inner_->try_upsert(key, delta);
  }

  std::vector<std::pair<std::string, std::string>> range_scan(
      std::string_view lo, size_t limit) override {
    std::vector<std::pair<std::string, std::string>> rows;
    {
      Span s(this, kScan);
      rows = inner_->range_scan(lo, limit);
    }
    note_scan(lo, rows);
    return rows;
  }
  damkit::StatusOr<std::vector<std::pair<std::string, std::string>>>
  try_range_scan(std::string_view lo, size_t limit) override {
    damkit::StatusOr<std::vector<std::pair<std::string, std::string>>> rows =
        damkit::Status::internal("unset");
    {
      Span s(this, kScan);
      rows = inner_->try_range_scan(lo, limit);
    }
    if (rows.ok()) note_scan(lo, *rows);
    return rows;
  }

  void bulk_load(
      uint64_t count,
      const std::function<std::pair<std::string, std::string>(uint64_t)>& item)
      override {
    Span s(this, kOther);
    inner_->bulk_load(count, item);
  }
  void flush() override {
    Span s(this, kOther);
    inner_->flush();
  }
  damkit::Status checkpoint() override {
    Span s(this, kOther);
    return inner_->checkpoint();
  }
  void abandon() override { inner_->abandon(); }

  void set_retry_policy(const damkit::blockdev::RetryPolicy& policy) override {
    inner_->set_retry_policy(policy);
  }
  damkit::blockdev::RetryCounters retry_counters() const override {
    return inner_->retry_counters();
  }
  size_t height() const override { return inner_->height(); }
  double cache_hit_rate() const override { return inner_->cache_hit_rate(); }
  void check_invariants() override { inner_->check_invariants(); }
  void set_event_trace(damkit::stats::TraceBuffer* events) override {
    inner_->set_event_trace(events);
  }
  void export_metrics(damkit::stats::MetricsRegistry& reg,
                      std::string_view prefix) const override {
    inner_->export_metrics(reg, prefix);
  }

 private:
  /// Scoped attribution of one call: host time (when timing) and the
  /// simulated-clock advance (when recording a data op).
  class Span {
   public:
    Span(Probe* p, int kind)
        : p_(p), kind_(kind), sim0_(p->io_->now()),
          t0_(p->timing_ ? now_ns() : 0) {}
    ~Span() {
      ++p_->calls_[kind_];
      if (p_->timing_) p_->ns_[kind_] += now_ns() - t0_;
      if (p_->recording_ && kind_ != kOther) {
        p_->sim_lat_.push_back(p_->io_->now() - sim0_);
      }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Probe* p_;
    int kind_;
    sim::SimTime sim0_;
    uint64_t t0_;
  };

  void note_get(std::string_view key, const std::optional<std::string>& got) {
    if (got.has_value()) returned_bytes_ += key.size() + got->size();
    if (!digest_on_) return;
    digest_ = hash_bytes(hash_word(digest_, kGet), key);
    digest_ = got.has_value() ? hash_bytes(digest_, *got)
                              : hash_word(digest_, ~0ULL);
  }

  void note_scan(std::string_view lo,
                 const std::vector<std::pair<std::string, std::string>>& rows) {
    for (const auto& [k, v] : rows) returned_bytes_ += k.size() + v.size();
    if (!digest_on_) return;
    digest_ = hash_bytes(hash_word(digest_, kScan), lo);
    digest_ = hash_word(digest_, rows.size());
    for (const auto& [k, v] : rows) {
      digest_ = hash_bytes(hash_bytes(digest_, k), v);
    }
  }

  std::unique_ptr<kv::Dictionary> inner_;
  sim::IoContext* io_;
  bool digest_on_;
  bool timing_ = false;
  bool recording_ = false;
  uint64_t digest_ = kDigestSeed;
  uint64_t calls_[kKinds] = {};
  uint64_t ns_[kKinds] = {};
  uint64_t returned_bytes_ = 0;
  uint64_t mutated_bytes_ = 0;
  std::vector<uint64_t> sim_lat_;
};

}  // namespace perfbench
