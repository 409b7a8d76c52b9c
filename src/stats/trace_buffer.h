// Structured event trace: a fixed-capacity ring buffer of typed events
// with a JSONL dump, the "why was that IO issued" companion to the
// numeric MetricsRegistry.
//
// Producers (Device and the trees) hold an optional TraceBuffer* and
// emit through it only when non-null and stats::collecting() — a single
// predictable branch per event on the hot path, and nothing at all when
// DAMKIT_STATS_ENABLED=0. The buffer is single-owner and not
// thread-safe by design: in parallel sweeps each worker wires its own
// buffer to its own device/tree, matching the one-registry-per-worker
// metrics discipline.
//
// Event fields are deliberately flat (three generic u64 payload slots)
// so emission is a struct copy; the category/name pair gives the schema:
//   io:       name=read|write|batch, v0=offset (batch: width), v1=length,
//             v2=latency_ns
//   betree:   name=flush,            v0=depth, v1=messages, v2=0
//   lsm:      name=memtable_flush|compaction, v0=level, v1=bytes_in,
//             v2=bytes_out
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace damkit::stats {

struct Event {
  uint64_t t = 0;  // simulated ns when known, else 0
  const char* category = "";
  const char* name = "";
  uint64_t v0 = 0;
  uint64_t v1 = 0;
  uint64_t v2 = 0;
};

class TraceBuffer {
 public:
  explicit TraceBuffer(size_t capacity = 1 << 16);

  /// Record one event (overwrites the oldest once full). `category` and
  /// `name` must be string literals or otherwise outlive the buffer.
  void emit(const Event& e);

  size_t size() const { return size_; }
  size_t capacity() const { return ring_.capacity(); }
  uint64_t total_emitted() const { return seq_; }
  bool overflowed() const { return seq_ > size_; }

  /// Events oldest-first (copies; the ring stays intact).
  std::vector<Event> events() const;

  /// One JSON object per line, oldest-first:
  ///   {"seq":N,"t":NS,"cat":"io","name":"read","v0":...,"v1":...,"v2":...}
  std::string to_jsonl() const;
  /// Write to_jsonl() to `path`; false (with errno intact) on IO failure.
  bool dump_jsonl(const std::string& path) const;

  void clear();

 private:
  std::vector<Event> ring_;  // reserved to capacity up front
  size_t head_ = 0;          // next write slot once the ring is full
  size_t size_ = 0;
  uint64_t seq_ = 0;  // events ever emitted (first dropped = seq_ - size_)
};

}  // namespace damkit::stats
