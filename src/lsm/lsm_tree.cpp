#include "lsm/lsm_tree.h"

#include <algorithm>
#include <cmath>

#include "kv/slice.h"
#include "node/record.h"

namespace damkit::lsm {

LsmTree::LsmTree(sim::Device& dev, sim::IoContext& io, LsmConfig config)
    : dev_(&dev),
      io_(&io),
      config_(config),
      arena_(dev, config.base_offset) {
  const blockdev::CodecKind resolved =
      blockdev::resolve_codec_kind(config_.codec);
  if (resolved != blockdev::CodecKind::kIdentity) {
    codec_ = blockdev::make_codec(resolved);
  }
  DAMKIT_CHECK(config_.memtable_bytes >= 1024);
  DAMKIT_CHECK(config_.sstable_target_bytes >= config_.block_bytes);
  DAMKIT_CHECK(config_.size_ratio > 1.0);
  levels_.resize(2);  // L0 and L1 exist from the start
}

LsmTree::~LsmTree() = default;

const kv::Capabilities& LsmTree::capabilities() const {
  static constexpr kv::Capabilities kCaps{.native_bulk_load = false};
  return kCaps;
}

Status LsmTree::try_put(std::string_view key, std::string_view value) {
  DAMKIT_RETURN_IF_ERROR(node::check_key_size(key));
  ++stats_.puts;
  stats_.logical_bytes_written += key.size() + value.size();
  mem_.put(key, value);
  if (mem_.approximate_bytes() >= config_.memtable_bytes) {
    DAMKIT_RETURN_IF_ERROR(flush_memtable());
    return maybe_compact();
  }
  return Status();
}

Status LsmTree::try_erase(std::string_view key) {
  DAMKIT_RETURN_IF_ERROR(node::check_key_size(key));
  ++stats_.erases;
  stats_.logical_bytes_written += key.size();
  mem_.erase(key);
  if (mem_.approximate_bytes() >= config_.memtable_bytes) {
    DAMKIT_RETURN_IF_ERROR(flush_memtable());
    return maybe_compact();
  }
  return Status();
}

Status LsmTree::try_upsert(std::string_view key, int64_t delta) {
  DAMKIT_RETURN_IF_ERROR(node::check_key_size(key));
  StatusOr<std::optional<std::string>> current = try_get(key);
  DAMKIT_RETURN_IF_ERROR(current.status());
  return try_put(key, kv::add_to_counter(*current, delta));
}

void LsmTree::bulk_load(
    uint64_t count,
    const std::function<std::pair<std::string, std::string>(uint64_t)>& item) {
  for (uint64_t i = 0; i < count; ++i) {
    const std::pair<std::string, std::string> entry = item(i);
    put(entry.first, entry.second);
  }
}

Status LsmTree::checkpoint() {
  if (mem_.empty()) return Status();
  DAMKIT_RETURN_IF_ERROR(flush_memtable());
  return maybe_compact();
}

Status LsmTree::flush_memtable() {
  const uint64_t mem_bytes = mem_.approximate_bytes();
  SSTableBuilder builder(*dev_, *io_, arena_, config_.block_bytes,
                         next_sequence_++, codec_.get());
  for (const auto& [key, slot] : mem_.entries()) {
    builder.add(Entry{key, slot.value, slot.tombstone});
  }
  // On give-up nothing was installed (the builder freed its extent) and
  // the memtable stays authoritative; the next threshold crossing retries.
  StatusOr<SSTableRef> table_or = builder.try_finish(retry_, &retry_counters_);
  DAMKIT_RETURN_IF_ERROR(table_or.status());
  SSTableRef table = *std::move(table_or);
  uint64_t table_bytes = 0;
  if (table != nullptr) {
    table_bytes = table->total_bytes();
    levels_[0].insert(levels_[0].begin(), std::move(table));  // newest first
  }
  mem_.clear();
  ++stats_.memtable_flushes;
  stats_.flush_bytes_out += table_bytes;
  DAMKIT_STATS_ONLY(if (events_ != nullptr && stats::collecting()) {
    events_->emit({io_->now(), "lsm", "memtable_flush", 0, mem_bytes,
                   table_bytes});
  });
  return Status();
}

uint64_t LsmTree::level_capacity(size_t level) const {
  DAMKIT_CHECK(level >= 1);
  return static_cast<uint64_t>(
      static_cast<double>(config_.level1_bytes) *
      std::pow(config_.size_ratio, static_cast<double>(level - 1)));
}

uint64_t LsmTree::level_bytes(size_t level) const {
  DAMKIT_CHECK(level < levels_.size());
  uint64_t bytes = 0;
  for (const auto& t : levels_[level]) bytes += t->total_bytes();
  return bytes;
}

std::vector<size_t> LsmTree::level_table_counts() const {
  std::vector<size_t> counts;
  counts.reserve(levels_.size());
  for (const auto& level : levels_) counts.push_back(level.size());
  return counts;
}

Status LsmTree::maybe_compact() {
  if (config_.style == CompactionStyle::kTiered) {
    for (bool changed = true; changed;) {
      changed = false;
      for (size_t i = 0; i < levels_.size(); ++i) {
        if (levels_[i].size() > config_.level0_limit) {
          DAMKIT_RETURN_IF_ERROR(compact_tier(i));
          changed = true;
        }
      }
    }
    return Status();
  }
  for (bool changed = true; changed;) {
    changed = false;
    if (levels_[0].size() > config_.level0_limit) {
      DAMKIT_RETURN_IF_ERROR(compact_level0());
      changed = true;
    }
    for (size_t i = 1; i < levels_.size(); ++i) {
      if (!levels_[i].empty() && level_bytes(i) > level_capacity(i)) {
        DAMKIT_RETURN_IF_ERROR(compact_level(i));
        changed = true;
      }
    }
  }
  return Status();
}

Status LsmTree::compact_tier(size_t level) {
  if (level + 1 >= levels_.size()) levels_.resize(level + 2);
  // Merge the whole tier; newest-first order is already maintained.
  std::vector<SSTableRef> inputs = levels_[level];
  bool bottom = true;
  for (size_t i = level + 1; i < levels_.size(); ++i) {
    if (!levels_[i].empty()) bottom = false;
  }
  // One output table per merge: in tiered compaction a run must stay a
  // single unit, or run counting (and with it termination) breaks.
  StatusOr<std::vector<SSTableRef>> outputs_or =
      merge_tables(inputs, bottom, level, /*split_output=*/false);
  DAMKIT_RETURN_IF_ERROR(outputs_or.status());
  std::vector<SSTableRef> outputs = *std::move(outputs_or);
  for (const auto& t : levels_[level]) t->release();
  levels_[level].clear();
  // The merged run lands at the *front* of the next tier (it is newer
  // than everything already there).
  levels_[level + 1].insert(levels_[level + 1].begin(), outputs.begin(),
                            outputs.end());
  return Status();
}

Status LsmTree::charge_compaction_batches(
    std::span<const sim::IoRequest> reqs) {
  blockdev::BatchRetryScratch scratch;
  for (size_t i = 0; i < reqs.size(); i += kCompactionBatchIos) {
    const auto batch =
        reqs.subspan(i, std::min(kCompactionBatchIos, reqs.size() - i));
    ++stats_.compaction_batches;
    stats_.compaction_batched_ios += batch.size();
    // A request that exhausts its attempts abandons the compaction.
    DAMKIT_RETURN_IF_ERROR(blockdev::with_batch_retries(
        *io_, retry_, &retry_counters_, /*retry_corruption=*/false, batch,
        scratch, [](size_t, const Status&) { return Status(); }));
  }
  return Status();
}

StatusOr<std::vector<SSTableRef>> LsmTree::merge_tables(
    const std::vector<SSTableRef>& inputs, bool bottom, size_t source_level,
    bool split_output) {
  ++stats_.compactions;
  if (source_level >= compactions_by_level_.size()) {
    compactions_by_level_.resize(source_level + 1);
  }
  ++compactions_by_level_[source_level];
  uint64_t bytes_in = 0;
  for (const auto& t : inputs) bytes_in += t->total_bytes();
  stats_.compaction_bytes_in += bytes_in;

  // Precharge the input reads through the batch path: the inputs are
  // immutable, so every run IO of the merge is known upfront. Interleave
  // them round-robin across tables and submit kCompactionBatchIos per
  // device batch — an SSD serves each batch across its dies in parallel
  // instead of one run per merge stall. The cursors below then consume
  // payload without further timing charges.
  std::vector<std::vector<sim::IoRequest>> per_input;
  size_t total = 0;
  per_input.reserve(inputs.size());
  for (const auto& t : inputs) {
    per_input.push_back(t->run_requests(kScanReadaheadBlocks));
    total += per_input.back().size();
  }
  const bool precharged = total > 1;
  if (precharged) {
    std::vector<sim::IoRequest> interleaved;
    interleaved.reserve(total);
    for (size_t round = 0; interleaved.size() < total; ++round) {
      for (const auto& runs : per_input) {
        if (round < runs.size()) interleaved.push_back(runs[round]);
      }
    }
    DAMKIT_RETURN_IF_ERROR(charge_compaction_batches(interleaved));
  }

  // K-way merge, recency = input order (lower index shadows higher).
  struct Cursor {
    SSTable::Iterator it;
    size_t priority;
  };
  std::vector<Cursor> cursors;
  std::vector<SSTableRef> outputs;
  // Transactional failure: on a non-OK status, release every output
  // written so far and leave the inputs untouched, so the pre-merge tree
  // state stays authoritative. Passes OK through untouched.
  const auto abort_merge = [&](const Status& s) {
    if (!s.ok()) {
      for (const auto& t : outputs) t->release();
      outputs.clear();
    }
    return s;
  };

  cursors.reserve(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    SSTable::Iterator it = inputs[i]->seek("", *io_, retry_, &retry_counters_,
                                           kScanReadaheadBlocks,
                                           /*charge_io=*/!precharged);
    if (!it.valid()) DAMKIT_RETURN_IF_ERROR(abort_merge(it.status()));
    if (it.valid()) cursors.push_back({std::move(it), i});
  }

  std::unique_ptr<SSTableBuilder> builder;
  auto emit = [&](Entry e) -> Status {
    if (bottom && e.tombstone) return Status();  // tombstones die at bottom
    if (!builder) {
      builder = std::make_unique<SSTableBuilder>(
          *dev_, *io_, arena_, config_.block_bytes, next_sequence_++,
          codec_.get());
    }
    builder->add(std::move(e));
    if (split_output &&
        builder->data_bytes() >= config_.sstable_target_bytes) {
      StatusOr<SSTableRef> table = builder->try_finish(retry_, &retry_counters_);
      DAMKIT_RETURN_IF_ERROR(table.status());
      outputs.push_back(*std::move(table));
      builder.reset();
    }
    return Status();
  };

  while (!cursors.empty()) {
    // Find the smallest key; among equals, the lowest priority (newest).
    size_t best = 0;
    for (size_t i = 1; i < cursors.size(); ++i) {
      const int c = kv::compare(cursors[i].it.entry().key,
                                cursors[best].it.entry().key);
      if (c < 0 || (c == 0 && cursors[i].priority < cursors[best].priority)) {
        best = i;
      }
    }
    Entry winner = cursors[best].it.entry().to_entry();
    // Advance every cursor positioned at this key (shadowed versions).
    for (size_t i = 0; i < cursors.size();) {
      if (kv::compare(cursors[i].it.entry().key, winner.key) == 0) {
        cursors[i].it.next();
        if (!cursors[i].it.valid()) {
          // An exhausted cursor is fine; one that stopped on a read
          // give-up aborts the merge (silently dropping its remaining
          // entries would lose data).
          DAMKIT_RETURN_IF_ERROR(abort_merge(cursors[i].it.status()));
          cursors.erase(cursors.begin() + static_cast<ptrdiff_t>(i));
          continue;
        }
      }
      ++i;
    }
    const Status emitted = emit(std::move(winner));
    DAMKIT_RETURN_IF_ERROR(abort_merge(emitted));
  }
  if (builder) {
    StatusOr<SSTableRef> last = builder->try_finish(retry_, &retry_counters_);
    DAMKIT_RETURN_IF_ERROR(abort_merge(last.status()));
    if (*last != nullptr) outputs.push_back(*std::move(last));
  }
  uint64_t bytes_out = 0;
  for (const auto& t : outputs) bytes_out += t->total_bytes();
  stats_.compaction_bytes_out += bytes_out;
  DAMKIT_STATS_ONLY(if (events_ != nullptr && stats::collecting()) {
    events_->emit({io_->now(), "lsm", "compaction", source_level, bytes_in,
                   bytes_out});
  });
  return outputs;
}

void LsmTree::install_level1plus(size_t level, std::vector<SSTableRef> added,
                                 const std::vector<SSTableRef>& removed) {
  Level& lv = levels_[level];
  for (const auto& dead : removed) {
    const auto it = std::find(lv.begin(), lv.end(), dead);
    if (it != lv.end()) lv.erase(it);
  }
  for (auto& t : added) lv.push_back(std::move(t));
  std::sort(lv.begin(), lv.end(), [](const SSTableRef& a, const SSTableRef& b) {
    return kv::compare(a->min_key(), b->min_key()) < 0;
  });
}

Status LsmTree::compact_level0() {
  // All of L0 plus every overlapping L1 table.
  std::vector<SSTableRef> inputs = levels_[0];  // newest first already
  std::string lo = inputs.front()->min_key();
  std::string hi = inputs.front()->max_key();
  for (const auto& t : inputs) {
    if (kv::compare(t->min_key(), lo) < 0) lo = t->min_key();
    if (kv::compare(t->max_key(), hi) > 0) hi = t->max_key();
  }
  std::vector<SSTableRef> overlapped;
  for (const auto& t : levels_[1]) {
    if (t->overlaps(lo, hi)) overlapped.push_back(t);
  }
  inputs.insert(inputs.end(), overlapped.begin(), overlapped.end());

  bool bottom = true;
  for (size_t i = 2; i < levels_.size(); ++i) {
    if (!levels_[i].empty()) bottom = false;
  }
  // Remaining (non-overlapped) L1 tables also shadow deeper data; only
  // drop tombstones if L1 is the lowest level, which `bottom` captures.
  StatusOr<std::vector<SSTableRef>> outputs_or =
      merge_tables(inputs, bottom, /*source_level=*/0);
  DAMKIT_RETURN_IF_ERROR(outputs_or.status());

  for (const auto& t : levels_[0]) t->release();
  levels_[0].clear();
  for (const auto& t : overlapped) t->release();
  install_level1plus(1, *std::move(outputs_or), overlapped);
  return Status();
}

Status LsmTree::compact_level(size_t level) {
  DAMKIT_CHECK(level >= 1);
  if (level + 1 >= levels_.size()) levels_.resize(level + 2);
  Level& lv = levels_[level];
  DAMKIT_CHECK(!lv.empty());
  const SSTableRef victim = lv[compact_cursor_ % lv.size()];
  ++compact_cursor_;

  std::vector<SSTableRef> overlapped;
  for (const auto& t : levels_[level + 1]) {
    if (t->overlaps(victim->min_key(), victim->max_key())) {
      overlapped.push_back(t);
    }
  }
  std::vector<SSTableRef> inputs{victim};
  inputs.insert(inputs.end(), overlapped.begin(), overlapped.end());

  bool bottom = true;
  for (size_t i = level + 2; i < levels_.size(); ++i) {
    if (!levels_[i].empty()) bottom = false;
  }
  StatusOr<std::vector<SSTableRef>> outputs_or =
      merge_tables(inputs, bottom, level);
  DAMKIT_RETURN_IF_ERROR(outputs_or.status());

  const auto it = std::find(lv.begin(), lv.end(), victim);
  DAMKIT_CHECK(it != lv.end());
  lv.erase(it);
  victim->release();
  for (const auto& t : overlapped) t->release();
  install_level1plus(level + 1, *std::move(outputs_or), overlapped);
  return Status();
}

StatusOr<std::optional<std::string>> LsmTree::try_get(std::string_view key) {
  ++stats_.gets;
  if (const auto hit = mem_.get(key)) {
    if (hit->tombstone) return std::optional<std::string>();
    return std::optional<std::string>(hit->value);
  }
  // Probe one table: returns the resolved value (or deletion) if found.
  enum class Probe { kMiss, kFound, kDeleted };
  std::string found;
  const auto probe = [&](const SSTableRef& t) -> StatusOr<Probe> {
    if (!t->overlaps(key, key)) return Probe::kMiss;
    ++stats_.table_probes;
    if (!t->may_contain(key)) {
      ++stats_.bloom_negative;
      return Probe::kMiss;
    }
    StatusOr<std::optional<Entry>> hit =
        t->try_get(key, *io_, retry_, &retry_counters_);
    DAMKIT_RETURN_IF_ERROR(hit.status());
    if (!hit->has_value()) return Probe::kMiss;
    if ((*hit)->tombstone) return Probe::kDeleted;
    found = (*hit)->value;
    return Probe::kFound;
  };
  const std::optional<std::string> miss;

  if (config_.style == CompactionStyle::kTiered) {
    // Every tier may hold overlapping runs: probe all, newest first.
    for (const auto& level : levels_) {
      for (const auto& t : level) {
        StatusOr<Probe> p = probe(t);
        DAMKIT_RETURN_IF_ERROR(p.status());
        switch (*p) {
          case Probe::kFound: return std::optional<std::string>(found);
          case Probe::kDeleted: return miss;
          case Probe::kMiss: break;
        }
      }
    }
    return miss;
  }

  // L0: newest first, may overlap.
  for (const auto& t : levels_[0]) {
    StatusOr<Probe> p = probe(t);
    DAMKIT_RETURN_IF_ERROR(p.status());
    switch (*p) {
      case Probe::kFound: return std::optional<std::string>(found);
      case Probe::kDeleted: return miss;
      case Probe::kMiss: break;
    }
  }
  // L1+: at most one candidate table per level.
  for (size_t i = 1; i < levels_.size(); ++i) {
    const Level& lv = levels_[i];
    const auto it = std::upper_bound(
        lv.begin(), lv.end(), key,
        [](std::string_view k, const SSTableRef& t) {
          return kv::compare(k, t->min_key()) < 0;
        });
    if (it == lv.begin()) continue;
    StatusOr<Probe> p = probe(*(it - 1));
    DAMKIT_RETURN_IF_ERROR(p.status());
    switch (*p) {
      case Probe::kFound: return std::optional<std::string>(found);
      case Probe::kDeleted: return miss;
      case Probe::kMiss: break;
    }
  }
  return miss;
}

StatusOr<std::vector<std::pair<std::string, std::string>>>
LsmTree::try_range_scan(std::string_view lo, size_t limit) {
  ++stats_.scans;
  std::vector<std::pair<std::string, std::string>> out;
  if (limit == 0) return out;

  // A cursor per source; priority orders recency (lower = newer).
  struct Source {
    // Either a memtable iterator...
    const MemTable::Map* mem = nullptr;
    MemTable::Map::const_iterator mem_it;
    // ...or a level run (sequence of tables + an open table iterator).
    const Level* level = nullptr;
    size_t table_idx = 0;
    std::unique_ptr<SSTable::Iterator> it;
    size_t priority = 0;

    bool valid() const {
      return mem != nullptr ? mem_it != mem->end()
                            : (it != nullptr && it->valid());
    }
    std::string_view key() const {
      return mem != nullptr ? std::string_view(mem_it->first)
                            : std::string_view(it->entry().key);
    }
  };

  std::vector<Source> sources;
  size_t priority = 0;
  {
    Source s;
    s.mem = &mem_.entries();
    s.mem_it = mem_.entries().lower_bound(lo);
    s.priority = priority++;
    if (s.valid()) sources.push_back(std::move(s));
  }
  const size_t overlapping_levels =
      (config_.style == CompactionStyle::kTiered) ? levels_.size() : 1;
  for (size_t i = 0; i < overlapping_levels; ++i) {
    for (const auto& t : levels_[i]) {
      Source s;
      s.priority = priority++;
      if (kv::compare(t->max_key(), lo) >= 0) {
        s.it = std::make_unique<SSTable::Iterator>(t->seek(
            lo, *io_, retry_, &retry_counters_, kScanReadaheadBlocks));
        DAMKIT_RETURN_IF_ERROR(s.it->status());
        if (s.it->valid()) sources.push_back(std::move(s));
      }
    }
  }
  for (size_t i = overlapping_levels; i < levels_.size(); ++i) {
    const Level& lv = levels_[i];
    Source s;
    s.level = &lv;
    s.priority = priority++;
    // First table whose max_key >= lo.
    size_t idx = 0;
    while (idx < lv.size() && kv::compare(lv[idx]->max_key(), lo) < 0) ++idx;
    if (idx == lv.size()) continue;
    s.table_idx = idx;
    s.it = std::make_unique<SSTable::Iterator>(lv[idx]->seek(
        lo, *io_, retry_, &retry_counters_, kScanReadaheadBlocks));
    DAMKIT_RETURN_IF_ERROR(s.it->status());
    if (s.it->valid()) sources.push_back(std::move(s));
  }

  auto advance = [&](Source& s) -> Status {
    if (s.mem != nullptr) {
      ++s.mem_it;
      return Status();
    }
    s.it->next();
    DAMKIT_RETURN_IF_ERROR(s.it->status());
    // A level run continues into the next table.
    while (s.level != nullptr && !s.it->valid() &&
           s.table_idx + 1 < s.level->size()) {
      ++s.table_idx;
      s.it = std::make_unique<SSTable::Iterator>(
          (*s.level)[s.table_idx]->seek(lo, *io_, retry_, &retry_counters_,
                                        kScanReadaheadBlocks));
      DAMKIT_RETURN_IF_ERROR(s.it->status());
    }
    return Status();
  };

  while (out.size() < limit) {
    // Smallest key; ties resolved by recency.
    int best = -1;
    for (size_t i = 0; i < sources.size(); ++i) {
      if (!sources[i].valid()) continue;
      if (best < 0) {
        best = static_cast<int>(i);
        continue;
      }
      const int c = kv::compare(sources[i].key(),
                                sources[static_cast<size_t>(best)].key());
      if (c < 0 || (c == 0 && sources[i].priority <
                                  sources[static_cast<size_t>(best)].priority)) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;
    Source& winner = sources[static_cast<size_t>(best)];
    const std::string key(winner.key());
    std::string value;
    bool tombstone;
    if (winner.mem != nullptr) {
      value = winner.mem_it->second.value;
      tombstone = winner.mem_it->second.tombstone;
    } else {
      value = winner.it->entry().value;
      tombstone = winner.it->entry().tombstone;
    }
    // Skip every shadowed version of this key.
    for (auto& s : sources) {
      while (s.valid() && kv::compare(s.key(), key) == 0) {
        DAMKIT_RETURN_IF_ERROR(advance(s));
      }
    }
    if (!tombstone) out.emplace_back(key, std::move(value));
  }
  return out;
}

void LsmTree::export_metrics(stats::MetricsRegistry& reg,
                             std::string_view prefix) const {
  const std::string p(prefix);
  reg.add(p + "puts", stats_.puts);
  reg.add(p + "gets", stats_.gets);
  reg.add(p + "erases", stats_.erases);
  reg.add(p + "scans", stats_.scans);
  reg.add(p + "memtable_flushes", stats_.memtable_flushes);
  reg.add(p + "compactions", stats_.compactions);
  reg.add(p + "compaction_bytes_in", stats_.compaction_bytes_in);
  reg.add(p + "compaction_bytes_out", stats_.compaction_bytes_out);
  reg.add(p + "compaction_batches", stats_.compaction_batches);
  reg.add(p + "compaction_batched_ios", stats_.compaction_batched_ios);
  reg.add(p + "flush_bytes_out", stats_.flush_bytes_out);
  reg.add(p + "logical_bytes_written", stats_.logical_bytes_written);
  reg.add(p + "bloom_negative", stats_.bloom_negative);
  reg.add(p + "table_probes", stats_.table_probes);
  reg.add(p + "io_retries", retry_counters_.retries);
  reg.add(p + "io_give_ups", retry_counters_.give_ups);
  for (size_t i = 0; i < compactions_by_level_.size(); ++i) {
    reg.add(p + "compactions.level" + std::to_string(i),
            compactions_by_level_[i]);
  }
  for (size_t i = 0; i < levels_.size(); ++i) {
    const std::string lp = p + "level" + std::to_string(i) + ".";
    reg.set(lp + "tables", static_cast<double>(levels_[i].size()));
    reg.set(lp + "bytes", static_cast<double>(level_bytes(i)));
  }
  if (stats_.compaction_batches > 0) {
    // Mean run IOs per submitted batch over the configured width — how
    // full the compaction kept the device's parallel slots.
    reg.set(p + "compaction_batch_occupancy",
            static_cast<double>(stats_.compaction_batched_ios) /
                static_cast<double>(stats_.compaction_batches *
                                    kCompactionBatchIos));
  }
  if (stats_.logical_bytes_written > 0) {
    reg.set(p + "write_amplification",
            static_cast<double>(stats_.flush_bytes_out +
                                stats_.compaction_bytes_out) /
                static_cast<double>(stats_.logical_bytes_written));
  }
  if (codec_ != nullptr) {
    codec_->stats().export_metrics(reg, p + "codec.");
  }
}

void LsmTree::check_invariants() {
  const bool tiered = config_.style == CompactionStyle::kTiered;
  for (size_t i = 0; i < levels_.size(); ++i) {
    for (const auto& t : levels_[i]) {
      DAMKIT_CHECK(kv::compare(t->min_key(), t->max_key()) <= 0);
      DAMKIT_CHECK(t->entry_count() > 0);
    }
    if (!tiered && i >= 1) {
      for (size_t j = 1; j < levels_[i].size(); ++j) {
        // Leveled: each level is one sorted, non-overlapping run.
        DAMKIT_CHECK_MSG(
            kv::compare(levels_[i][j - 1]->max_key(),
                        levels_[i][j]->min_key()) < 0,
            "level " << i << " tables overlap");
      }
    }
  }
  if (!tiered) {
    // L0 recency: sequences strictly decreasing (newest first).
    for (size_t j = 1; j < levels_[0].size(); ++j) {
      DAMKIT_CHECK(levels_[0][j - 1]->sequence() > levels_[0][j]->sequence());
    }
  }
}

}  // namespace damkit::lsm
