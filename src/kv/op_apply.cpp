#include "kv/op_apply.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "kv/slice.h"
#include "util/hash.h"

namespace damkit::kv {

uint64_t digest_rows(
    uint64_t h, std::span<const std::pair<std::string, std::string>> rows) {
  h = mix_word(h, rows.size());
  for (const auto& [k, v] : rows) h = mix_bytes(mix_bytes(h, k), v);
  return h;
}

namespace {

// One surface for both modes: a non-OK status counts as a failed op when
// the caller opted into fallible driving, and CHECK-aborts otherwise.
bool landed(const Status& status, const ApplyOptions& options,
            ApplyCounters* counters) {
  if (status.ok()) return true;
  DAMKIT_CHECK_MSG(options.fallible, status.to_string());
  ++counters->failed_ops;
  return false;
}

}  // namespace

void apply_op(Dictionary& dict, const Op& op, uint64_t global_index,
              const WorkloadSpec& spec, const ApplyOptions& options,
              uint64_t* digest, ApplyCounters* counters,
              ApplyScratch* scratch) {
  thread_local ApplyScratch fallback;
  if (scratch == nullptr) scratch = &fallback;
  std::string& key = scratch->key;
  encode_key_to(op.key_id, spec.key_bytes, &key);
  switch (op.type) {
    case OpType::kPut: {
      ++counters->puts;
      std::string& value = scratch->value;
      make_value_to(op.key_id + global_index, spec.value_bytes, &value);
      landed(dict.try_put(key, value), options, counters);
      break;
    }
    case OpType::kGet: {
      ++counters->gets;
      const StatusOr<std::optional<std::string>> got = dict.try_get(key);
      if (!landed(got.status(), options, counters)) break;
      *digest = mix_word(mix_bytes(*digest, key), got->has_value());
      if (got->has_value()) {
        ++counters->get_hits;
        *digest = mix_bytes(*digest, **got);
      }
      break;
    }
    case OpType::kDelete: {
      ++counters->erases;
      landed(dict.try_erase(key), options, counters);
      break;
    }
    case OpType::kScan: {
      ++counters->scans;
      const auto rows = dict.try_range_scan(key, op.scan_length);
      if (!landed(rows.status(), options, counters)) break;
      *digest = digest_rows(*digest, *rows);
      break;
    }
    case OpType::kUpsert: {
      ++counters->upserts;
      const auto delta = static_cast<int64_t>(op.key_id % 1000 + 1);
      landed(dict.try_upsert(key, delta), options, counters);
      break;
    }
  }
}

}  // namespace damkit::kv
