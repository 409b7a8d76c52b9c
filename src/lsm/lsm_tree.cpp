#include "lsm/lsm_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "kv/slice.h"
#include "node/record.h"

namespace damkit::lsm {

LsmTree::LsmTree(sim::Device& dev, sim::IoContext& io, LsmConfig config)
    : dev_(&dev), io_(&io), config_(config), arena_(dev, config.base_offset) {
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
  SSTableBuilder builder(*dev_, *io_, arena_, config_.block_bytes,
                         next_sequence_++, codec_.get(), mem_.entry_count());
  for (const auto& [key, slot] : mem_.entries()) {
    builder.add(EntryView{key, slot.value, slot.tombstone});
  }
  // On give-up nothing was installed (the builder freed its extent) and
  // the memtable stays authoritative; the next threshold crossing retries.
  StatusOr<SSTableRef> table_or = builder.try_finish();
  DAMKIT_RETURN_IF_ERROR(table_or.status());
  SSTableRef table = *std::move(table_or);
  uint64_t table_bytes = 0;
  if (table != nullptr) {
    table_bytes = table->total_bytes();
    // Newest first. push_back + rotate, not insert at begin(): gcc 12
    // reports a null dereference inside the shared_ptr move that insert's
    // reallocation inlines.
    Level& level0 = levels_[0];
    level0.push_back(std::move(table));
    std::rotate(level0.begin(), level0.end() - 1, level0.end());
  }
  mem_.clear();
  ++stats_.memtable_flushes;
  stats_.flush_bytes_out += table_bytes;
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

namespace {

// A key-sorted run's tables from the first whose max_key reaches `lo`.
std::span<const SSTableRef> reaching(std::span<const SSTableRef> run,
                                     std::string_view lo) {
  size_t skip = 0;
  while (skip < run.size() && kv::compare(run[skip]->max_key(), lo) < 0) {
    ++skip;
  }
  return run.subspan(skip);
}

// A key-sorted run's tables that overlap [lo, hi]: a contiguous span.
std::span<const SSTableRef> overlapping(std::span<const SSTableRef> run,
                                        std::string_view lo,
                                        std::string_view hi) {
  const std::span<const SSTableRef> from = reaching(run, lo);
  size_t n = 0;
  while (n < from.size() && kv::compare(from[n]->min_key(), hi) <= 0) ++n;
  return from.first(n);
}

}  // namespace

// The newest version of each key from `lo` on, in key order, across the
// memtable (newest) and `runs` (newest first). The current entry borrows
// from the newest source holding the smallest key; next() steps every
// source holding that key past it, newest first. A run's cursor opens its
// first table that reaches `lo`, and each later table when the one before
// runs out.
class LsmTree::MergeCursor {
 public:
  MergeCursor(LsmTree& tree, const MemTable::Map* mem,
              std::span<const Run> runs, std::string_view lo, bool charge_io)
      : tree_(&tree), lo_(lo), charge_io_(charge_io) {
    if (mem != nullptr) {
      mem_ = mem->lower_bound(lo);
      mem_end_ = mem->end();
    }
    sources_.reserve(runs.size());
    for (const Run& run : runs) {
      const Run tables = reaching(run, lo);
      if (tables.empty()) continue;
      Source s{tables, open(*tables.front()), false};
      status_ = s.it.status();
      if (!status_.ok()) return;
      if (s.it.valid()) sources_.push_back(std::move(s));
    }
    settle();
  }

  bool valid() const { return valid_; }
  const EntryView& entry() const { return entry_; }
  /// Non-OK when a source stopped on a failed read; valid() is then false.
  const Status& status() const { return status_; }

  void next() {
    // Mark before moving anything: entry_ borrows from the newest source.
    const bool mem_at = mem_ != mem_end_ && mem_->first == entry_.key;
    for (Source& s : sources_) {
      s.at_key = s.it.valid() && kv::compare(s.it.entry().key, entry_.key) == 0;
    }
    if (mem_at) ++mem_;
    for (Source& s : sources_) {
      if (s.at_key && !advance(s)) return;
    }
    settle();
  }

 private:
  struct Source {
    Run tables;  // the open table, then the run's later ones
    SSTable::Iterator it;
    bool at_key;  // holds the key next() steps past
  };

  SSTable::Iterator open(const SSTable& table) const {
    return table.seek(lo_, *tree_->io_, kScanReadaheadBlocks, charge_io_);
  }

  // Step `s` past its entry, into its run's next table when the open one
  // runs out. A failed read stops the merge.
  bool advance(Source& s) {
    s.it.next();
    while (!s.it.valid() && s.it.status().ok() && s.tables.size() > 1) {
      s.tables = s.tables.subspan(1);
      s.it = open(*s.tables.front());
    }
    if (s.it.status().ok()) return true;
    status_ = s.it.status();
    valid_ = false;
    return false;
  }

  // Borrow the smallest key's newest version.
  void settle() {
    valid_ = mem_ != mem_end_;
    if (valid_) {
      entry_ = {mem_->first, mem_->second.value, mem_->second.tombstone};
    }
    for (const Source& s : sources_) {
      if (s.it.valid() &&
          (!valid_ || kv::compare(s.it.entry().key, entry_.key) < 0)) {
        entry_ = s.it.entry();
        valid_ = true;
      }
    }
  }

  LsmTree* tree_;
  std::string_view lo_;
  bool charge_io_;
  MemTable::Map::const_iterator mem_{}, mem_end_{};  // equal: no memtable
  std::vector<Source> sources_;
  EntryView entry_;
  bool valid_ = false;
  Status status_;
};

void LsmTree::append_runs(size_t level, std::vector<Run>* out) const {
  const Level& lv = levels_[level];
  if (level >= 1 && config_.style == CompactionStyle::kLeveled) {
    if (!lv.empty()) out->push_back(lv);
    return;
  }
  for (const SSTableRef& t : lv) out->push_back(Run(&t, 1));
}

std::vector<LsmTree::Run> LsmTree::runs() const {
  std::vector<Run> out;
  for (size_t i = 0; i < levels_.size(); ++i) append_runs(i, &out);
  return out;
}

bool LsmTree::nothing_below(size_t level) const {
  for (size_t i = level + 1; i < levels_.size(); ++i) {
    if (!levels_[i].empty()) return false;
  }
  return true;
}

Status LsmTree::compact_level0() {
  // All of L0 plus every overlapping L1 table.
  std::vector<Run> inputs;
  append_runs(0, &inputs);
  std::string_view lo = levels_[0].front()->min_key();
  std::string_view hi = levels_[0].front()->max_key();
  for (const auto& t : levels_[0]) {
    if (kv::compare(t->min_key(), lo) < 0) lo = t->min_key();
    if (kv::compare(t->max_key(), hi) > 0) hi = t->max_key();
  }
  inputs.push_back(overlapping(levels_[1], lo, hi));
  // Remaining (non-overlapped) L1 tables also shadow deeper data; only
  // drop tombstones if L1 is the lowest level.
  return merge_into(0, inputs, nothing_below(1));
}

Status LsmTree::compact_level(size_t level) {
  DAMKIT_CHECK(level >= 1);
  if (level + 1 >= levels_.size()) levels_.resize(level + 2);
  const Level& lv = levels_[level];
  DAMKIT_CHECK(!lv.empty());
  const SSTableRef& victim = lv[compact_cursor_++ % lv.size()];
  const std::string& lo = victim->min_key();
  const std::string& hi = victim->max_key();
  std::vector<Run> inputs = {Run(&victim, 1)};
  inputs.push_back(overlapping(levels_[level + 1], lo, hi));
  return merge_into(level, inputs, nothing_below(level + 1));
}

Status LsmTree::compact_tier(size_t level) {
  if (level + 1 >= levels_.size()) levels_.resize(level + 2);
  // The whole tier, newest run first.
  std::vector<Run> inputs;
  append_runs(level, &inputs);
  return merge_into(level, inputs, nothing_below(level));
}

Status LsmTree::charge_compaction_batches(
    std::span<const sim::IoRequest> reqs) {
  for (size_t i = 0; i < reqs.size(); i += kCompactionBatchIos) {
    const auto batch =
        reqs.subspan(i, std::min(kCompactionBatchIos, reqs.size() - i));
    ++stats_.compaction_batches;
    stats_.compaction_batched_ios += batch.size();
    // A request that exhausts its attempts abandons the compaction.
    DAMKIT_RETURN_IF_ERROR(io_->submit_batch_checked(
        batch, [](size_t, const Status&) { return Status(); }));
  }
  return Status();
}

Status LsmTree::merge_into(size_t level, const std::vector<Run>& inputs,
                           bool bottom) {
  ++stats_.compactions;
  if (level >= compactions_by_level_.size()) {
    compactions_by_level_.resize(level + 1);
  }
  ++compactions_by_level_[level];
  std::vector<SSTableRef> tables;  // every input table, in run order
  for (const Run& run : inputs) {
    tables.insert(tables.end(), run.begin(), run.end());
  }
  uint64_t bytes_in = 0;
  uint64_t entries_in = 0;
  uint64_t data_in = 0;
  for (const auto& t : tables) {
    bytes_in += t->total_bytes();
    entries_in += t->entry_count();
    data_in += t->data_bytes();
  }
  stats_.compaction_bytes_in += bytes_in;

  // Precharge the input reads through the batch path: the inputs are
  // immutable, so every run IO of the merge is known upfront. Interleave
  // them round-robin across tables and submit kCompactionBatchIos per
  // device batch — an SSD serves each batch across its dies in parallel
  // instead of one run per merge stall. The cursors then consume payload
  // without further timing charges. A single run IO (one table of at most
  // kScanReadaheadBlocks blocks) is left to the cursor's seek.
  std::vector<std::vector<sim::IoRequest>> per_table;
  size_t total = 0;
  per_table.reserve(tables.size());
  for (const auto& t : tables) {
    per_table.push_back(t->run_requests(kScanReadaheadBlocks));
    total += per_table.back().size();
  }
  const bool precharged = total > 1;
  if (precharged) {
    std::vector<sim::IoRequest> interleaved;
    interleaved.reserve(total);
    for (size_t round = 0; interleaved.size() < total; ++round) {
      for (const auto& reqs : per_table) {
        if (round < reqs.size()) interleaved.push_back(reqs[round]);
      }
    }
    DAMKIT_RETURN_IF_ERROR(charge_compaction_batches(interleaved));
  }

  // Leveled output splits at the target size; a tier's run stays one
  // table, or run counting (and with it termination) breaks.
  const bool split = config_.style == CompactionStyle::kLeveled;
  // The entries an output should hold, which its builder reserves: all of
  // them for a tier's one table; else what the inputs pack into the target
  // size, plus a block for the last entry's overshoot and rounding.
  const uint64_t reserve_bytes =
      config_.sstable_target_bytes + config_.block_bytes;
  const uint64_t per_output =
      split ? std::min(entries_in, entries_in * reserve_bytes / data_in)
            : entries_in;
  std::vector<SSTableRef> outputs;
  std::optional<SSTableBuilder> builder;
  const auto finish = [&]() -> Status {
    StatusOr<SSTableRef> table = builder->try_finish();
    builder.reset();
    DAMKIT_RETURN_IF_ERROR(table.status());
    if (*table != nullptr) outputs.push_back(*std::move(table));
    return Status();
  };
  const auto merge = [&]() -> Status {
    MergeCursor m(*this, nullptr, inputs, "", /*charge_io=*/!precharged);
    for (; m.valid(); m.next()) {
      if (bottom && m.entry().tombstone) continue;  // dies at the bottom
      if (!builder) {
        builder.emplace(*dev_, *io_, arena_, config_.block_bytes,
                        next_sequence_++, codec_.get(), per_output);
      }
      builder->add(m.entry());
      if (split && builder->data_bytes() >= config_.sstable_target_bytes) {
        DAMKIT_RETURN_IF_ERROR(finish());
      }
    }
    DAMKIT_RETURN_IF_ERROR(m.status());
    return builder ? finish() : Status();
  };
  if (const Status merged = merge(); !merged.ok()) {
    // Transactional: drop what was written; the inputs stay installed.
    for (const auto& t : outputs) t->release();
    return merged;
  }
  uint64_t bytes_out = 0;
  for (const auto& t : outputs) bytes_out += t->total_bytes();
  stats_.compaction_bytes_out += bytes_out;

  for (const auto& t : tables) t->release();
  for (const size_t i : {level, level + 1}) {
    std::erase_if(levels_[i], [&](const SSTableRef& t) {
      return std::find(tables.begin(), tables.end(), t) != tables.end();
    });
  }
  Level& into = levels_[level + 1];
  if (split) {
    into.insert(into.end(), outputs.begin(), outputs.end());
    std::sort(into.begin(), into.end(),
              [](const SSTableRef& a, const SSTableRef& b) {
                return kv::compare(a->min_key(), b->min_key()) < 0;
              });
  } else {
    // The merged run is newer than every run already in the next tier.
    into.insert(into.begin(), outputs.begin(), outputs.end());
  }
  return Status();
}

StatusOr<std::optional<std::string>> LsmTree::try_get(std::string_view key) {
  ++stats_.gets;
  if (const std::optional<EntryView> hit = mem_.get(key)) {
    if (hit->tombstone) return std::optional<std::string>();
    return std::optional<std::string>(hit->value);
  }
  for (const Run& run : runs()) {
    // Only the run's last table starting at or before key can hold it.
    const auto after = std::upper_bound(
        run.begin(), run.end(), key,
        [](std::string_view k, const SSTableRef& t) {
          return kv::compare(k, t->min_key()) < 0;
        });
    if (after == run.begin()) continue;
    const SSTable& table = **(after - 1);
    if (!table.overlaps(key, key)) continue;
    ++stats_.table_probes;
    if (!table.may_contain(key)) {
      ++stats_.bloom_negative;
      continue;
    }
    StatusOr<std::optional<Entry>> hit = table.try_get(key, *io_);
    DAMKIT_RETURN_IF_ERROR(hit.status());
    if (!hit->has_value()) continue;
    if ((*hit)->tombstone) return std::optional<std::string>();
    return std::optional<std::string>(std::move((*hit)->value));
  }
  return std::optional<std::string>();
}

StatusOr<std::vector<std::pair<std::string, std::string>>>
LsmTree::try_range_scan(std::string_view lo, size_t limit) {
  ++stats_.scans;
  std::vector<std::pair<std::string, std::string>> out;
  if (limit == 0) return out;
  const std::vector<Run> all = runs();
  MergeCursor m(*this, &mem_.entries(), all, lo, /*charge_io=*/true);
  for (; m.valid() && out.size() < limit; m.next()) {
    if (!m.entry().tombstone) {
      out.emplace_back(m.entry().key, m.entry().value);
    }
  }
  DAMKIT_RETURN_IF_ERROR(m.status());
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
  std::vector<Run> level_runs;
  for (size_t i = 0; i < levels_.size(); ++i) {
    level_runs.clear();
    append_runs(i, &level_runs);
    // A level's runs are newest first: every table of a run is older than
    // every table of the runs before it.
    uint64_t older_than = std::numeric_limits<uint64_t>::max();
    for (const Run& run : level_runs) {
      uint64_t oldest = older_than;
      for (size_t j = 0; j < run.size(); ++j) {
        const SSTable& t = *run[j];
        DAMKIT_CHECK(kv::compare(t.min_key(), t.max_key()) <= 0);
        DAMKIT_CHECK(t.entry_count() > 0);
        DAMKIT_CHECK_MSG(t.sequence() < older_than,
                         "level " << i << " runs out of recency order");
        if (j > 0) {
          DAMKIT_CHECK_MSG(kv::compare(run[j - 1]->max_key(), t.min_key()) < 0,
                           "level " << i << " run tables overlap");
        }
        oldest = std::min(oldest, t.sequence());
      }
      older_than = oldest;
    }
  }
}

}  // namespace damkit::lsm
