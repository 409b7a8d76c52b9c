#include "kv/sharded_engine.h"

#include <algorithm>
#include <queue>

#include "util/table.h"

namespace damkit::kv {

uint64_t shard_hash(std::string_view key) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const char c : key) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

ShardedEngine::ShardedEngine(EngineKind kind, sim::Device& dev,
                             sim::IoContext& io, const EngineConfig& config,
                             const ShardedConfig& sharded) {
  DAMKIT_CHECK_MSG(sharded.shards >= 1, "need at least one shard");
  inner_.reserve(static_cast<size_t>(sharded.shards));
  for (int i = 0; i < sharded.shards; ++i) {
    EngineConfig shard_config = config;
    set_base_offset(shard_config,
                    sharded.base_offset +
                        static_cast<uint64_t>(i) * sharded.shard_stride_bytes);
    inner_.push_back(make_engine(kind, dev, io, shard_config));
  }
  caps_ = inner_[0]->capabilities();
  caps_.sharded = true;
  caps_.shard_count = sharded.shards;
  name_ = strfmt("sharded-%s", std::string(inner_[0]->name()).c_str());
}

ShardedEngine::~ShardedEngine() = default;

size_t ShardedEngine::shard_of(std::string_view key) const {
  return shard_hash(key) % inner_.size();
}

Status ShardedEngine::try_put(std::string_view key, std::string_view value) {
  return inner_[shard_of(key)]->try_put(key, value);
}
StatusOr<std::optional<std::string>> ShardedEngine::try_get(
    std::string_view key) {
  return inner_[shard_of(key)]->try_get(key);
}
Status ShardedEngine::try_erase(std::string_view key) {
  return inner_[shard_of(key)]->try_erase(key);
}
Status ShardedEngine::try_upsert(std::string_view key, int64_t delta) {
  return inner_[shard_of(key)]->try_upsert(key, delta);
}

namespace {

// Ordered k-way merge of per-shard scan results, truncated to `limit`.
// Shards partition the key space, so no key appears twice.
std::vector<std::pair<std::string, std::string>> merge_scans(
    std::vector<std::vector<std::pair<std::string, std::string>>> runs,
    size_t limit) {
  using Head = std::pair<std::string_view, size_t>;  // next key, run index
  const auto greater = [](const Head& a, const Head& b) {
    return a.first > b.first;
  };
  std::priority_queue<Head, std::vector<Head>, decltype(greater)> heap(
      greater);
  std::vector<size_t> cursor(runs.size(), 0);
  for (size_t r = 0; r < runs.size(); ++r) {
    if (!runs[r].empty()) heap.emplace(runs[r][0].first, r);
  }
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(std::min(limit, static_cast<size_t>(64)));
  while (out.size() < limit && !heap.empty()) {
    const size_t r = heap.top().second;
    heap.pop();
    out.push_back(std::move(runs[r][cursor[r]]));
    if (++cursor[r] < runs[r].size()) {
      heap.emplace(runs[r][cursor[r]].first, r);
    }
  }
  return out;
}

}  // namespace

StatusOr<std::vector<std::pair<std::string, std::string>>>
ShardedEngine::try_range_scan(std::string_view lo, size_t limit) {
  if (inner_.size() == 1) return inner_[0]->try_range_scan(lo, limit);
  std::vector<std::vector<std::pair<std::string, std::string>>> runs;
  runs.reserve(inner_.size());
  for (const auto& shard : inner_) {
    auto run = shard->try_range_scan(lo, limit);
    if (!run.ok()) return run.status();
    runs.push_back(*std::move(run));
  }
  return merge_scans(std::move(runs), limit);
}

void ShardedEngine::bulk_load(
    uint64_t count,
    const std::function<std::pair<std::string, std::string>(uint64_t)>& item) {
  if (inner_.size() == 1) {
    inner_[0]->bulk_load(count, item);
    return;
  }
  // Partition the ascending stream; each shard's slice stays ascending.
  std::vector<std::vector<std::pair<std::string, std::string>>> slices(
      inner_.size());
  for (uint64_t i = 0; i < count; ++i) {
    std::pair<std::string, std::string> kv = item(i);
    slices[shard_of(kv.first)].push_back(std::move(kv));
  }
  for (size_t s = 0; s < inner_.size(); ++s) {
    if (slices[s].empty()) continue;
    const auto& slice = slices[s];
    inner_[s]->bulk_load(slice.size(), [&slice](uint64_t i) {
      return slice[static_cast<size_t>(i)];
    });
  }
}

Status ShardedEngine::checkpoint() {
  // Attempt every shard; clean shards re-checkpoint as no-ops, so a retry
  // after a partial failure touches exactly the still-dirty remainder.
  Status first;
  for (const auto& shard : inner_) {
    const Status s = shard->checkpoint();
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

void ShardedEngine::abandon() {
  for (const auto& shard : inner_) shard->abandon();
}

void ShardedEngine::set_retry_policy(const blockdev::RetryPolicy& policy) {
  inner_.front()->set_retry_policy(policy);
}

blockdev::RetryCounters ShardedEngine::retry_counters() const {
  return inner_.front()->retry_counters();
}

size_t ShardedEngine::height() const {
  size_t h = 0;
  for (const auto& shard : inner_) h = std::max(h, shard->height());
  return h;
}

double ShardedEngine::cache_hit_rate() const {
  double sum = 0;
  for (const auto& shard : inner_) sum += shard->cache_hit_rate();
  return sum / static_cast<double>(inner_.size());
}

void ShardedEngine::check_invariants() {
  for (const auto& shard : inner_) shard->check_invariants();
}

void ShardedEngine::export_metrics(stats::MetricsRegistry& reg,
                                   std::string_view prefix) const {
  const std::string p(prefix);
  for (size_t s = 0; s < inner_.size(); ++s) {
    inner_[s]->export_metrics(reg, strfmt("%sshard%zu.", p.c_str(), s));
  }
  reg.set(p + "shards", static_cast<double>(inner_.size()));
}

std::unique_ptr<Dictionary> make_sharded_engine(EngineKind kind,
                                                sim::Device& dev,
                                                sim::IoContext& io,
                                                const EngineConfig& config,
                                                const ShardedConfig& sharded) {
  if (sharded.shards == 1 && sharded.base_offset == 0) {
    return make_engine(kind, dev, io, config);
  }
  return std::make_unique<ShardedEngine>(kind, dev, io, config, sharded);
}

}  // namespace damkit::kv
