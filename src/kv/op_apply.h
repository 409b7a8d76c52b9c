// Shared application of one generated Op against a Dictionary.
//
// WorkloadRunner::run() and the concurrent serving layer (src/serve/) must
// observe byte-identical behavior per op — same written values, same digest
// mixing over read results — or the cross-engine differential test cannot
// extend to concurrent runs. Factoring the op switch here makes divergence
// impossible by construction: both callers drive the same code. Every op
// goes through the Dictionary's fallible try_* surface; ApplyOptions only
// decides whether a non-OK status is counted or CHECK-aborts.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "kv/dictionary.h"
#include "kv/workload.h"

namespace damkit::kv {

/// Seed of the read digest, which apply_op accumulates over every read
/// result with util/hash.h; identical op streams against engines that
/// return identical data yield identical digests. The name dates from when
/// the digest was FNV-1a; the value is only a seed.
inline constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ULL;

/// Mix one range-scan result into a read digest: the row count as a word,
/// then every key and value as a length-framed field.
uint64_t digest_rows(uint64_t h,
                     std::span<const std::pair<std::string, std::string>> rows);

struct ApplyCounters {
  uint64_t puts = 0, gets = 0, erases = 0, scans = 0, upserts = 0;
  uint64_t get_hits = 0;
  uint64_t failed_ops = 0;
};

struct ApplyOptions {
  /// Non-OK ops count as failed (ApplyCounters::failed_ops) instead of
  /// CHECK-aborting with their status.
  bool fallible = false;
};

/// Reusable per-stream buffers for apply_op. The key/value encodings are
/// rebuilt for every op; routing them through a scratch keeps their string
/// capacity alive across ops so the hot generator loop does zero
/// steady-state allocations. One scratch per driving thread.
struct ApplyScratch {
  std::string key;
  std::string value;
};

/// Apply `op` to `dict`. `global_index` is the op's position in the overall
/// generated stream — put values are make_value(key_id + global_index, ...),
/// so the index an op is *applied under* must match the index it was
/// *generated at* regardless of which client it belongs to.
/// Read results are mixed into *digest; counters are bumped in *counters.
/// `scratch` may be null (a per-thread fallback is used); passing one per
/// run keeps buffer reuse explicit.
void apply_op(Dictionary& dict, const Op& op, uint64_t global_index,
              const WorkloadSpec& spec, const ApplyOptions& options,
              uint64_t* digest, ApplyCounters* counters,
              ApplyScratch* scratch = nullptr);

}  // namespace damkit::kv
