#include "wal/durable_engine.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "node/record.h"
#include "util/bytes.h"

namespace damkit::wal {

namespace {

// Entries per try_range_scan chunk while serializing a snapshot.
constexpr size_t kSnapshotScanChunk = 512;

void append_entry(std::vector<uint8_t>* payload, std::string_view key,
                  std::string_view value) {
  const size_t at = payload->size();
  payload->resize(at + 8 + key.size() + value.size());
  uint8_t* p = payload->data() + at;
  store_u32(p, static_cast<uint32_t>(key.size()));
  store_u32(p + 4, static_cast<uint32_t>(value.size()));
  std::copy(key.begin(), key.end(), p + 8);
  std::copy(value.begin(), value.end(), p + 8 + key.size());
}

}  // namespace

DurabilityConfig default_durability_config(uint64_t device_capacity_bytes) {
  DurabilityConfig cfg;
  const uint64_t wal_region = cfg.wal.region_bytes;
  const uint64_t snap_region = 2 * cfg.snapshot.slot_bytes;
  DAMKIT_CHECK_MSG(device_capacity_bytes > 4 * (wal_region + snap_region),
                   "device too small for the default durability layout");
  cfg.snapshot.base_offset = device_capacity_bytes - snap_region;
  cfg.wal.base_offset = cfg.snapshot.base_offset - wal_region;
  return cfg;
}

DurableEngine::DurableEngine(std::unique_ptr<kv::Dictionary> inner,
                             sim::Device& dev, sim::IoContext& io,
                             const DurabilityConfig& cfg)
    : DurableEngine(RecoverTag{}, std::move(inner), dev, io, cfg) {
  // Fresh birth: fence the log region so leftover device bytes (a prior
  // incarnation, test reuse) can never replay into this engine.
  DAMKIT_CHECK_OK(log_.reset(1));
}

DurableEngine::DurableEngine(RecoverTag, std::unique_ptr<kv::Dictionary> inner,
                             sim::Device& dev, sim::IoContext& io,
                             const DurabilityConfig& cfg)
    : inner_(std::move(inner)),
      cfg_(cfg),
      log_(dev, io, cfg.wal),
      snapshot_(dev, io, cfg.snapshot),
      name_(std::string(inner_->name()) + "+wal") {}

DurableEngine::~DurableEngine() = default;

// A key past the record limit, or a record the WAL region cannot hold, is
// rejected before it takes an LSN; the inner engine's own rejections are
// logged, and replay skips them. An append whose own group commit failed
// has still taken its LSN and stays buffered, and the next successful
// commit makes it durable, so the mutation is applied then too: the live
// state matches what recovery would replay.
template <typename Apply>
Status DurableEngine::log_and_apply(WriteAheadLog::RecordType type,
                                    std::string_view key,
                                    std::string_view value, Apply&& apply) {
  DAMKIT_RETURN_IF_ERROR(node::check_key_size(key));
  const uint64_t lsn = log_.next_lsn();
  const Status logged = log_.append(type, key, value, lsn);
  if (log_.next_lsn() == lsn) return logged;  // not logged: not applied
  const Status applied = apply();
  DAMKIT_RETURN_IF_ERROR(logged);
  DAMKIT_RETURN_IF_ERROR(applied);
  return maybe_auto_checkpoint();
}

Status DurableEngine::maybe_auto_checkpoint() {
  if (cfg_.checkpoint_wal_bytes == 0 || in_checkpoint_) return Status();
  const uint64_t pending = log_.durable_bytes() + log_.buffered_bytes();
  if (pending < cfg_.checkpoint_wal_bytes) {
    return Status();
  }
  ++auto_checkpoints_;
  return checkpoint();
}

Status DurableEngine::try_put(std::string_view key, std::string_view value) {
  return log_and_apply(WriteAheadLog::RecordType::kPut, key, value,
                       [&] { return inner_->try_put(key, value); });
}

Status DurableEngine::try_erase(std::string_view key) {
  return log_and_apply(WriteAheadLog::RecordType::kErase, key, {},
                       [&] { return inner_->try_erase(key); });
}

Status DurableEngine::try_upsert(std::string_view key, int64_t delta) {
  const std::string payload = kv::encode_counter(static_cast<uint64_t>(delta));
  return log_and_apply(WriteAheadLog::RecordType::kUpsert, key, payload,
                       [&] { return inner_->try_upsert(key, delta); });
}

void DurableEngine::bulk_load(
    uint64_t count,
    const std::function<std::pair<std::string, std::string>(uint64_t)>& item) {
  std::vector<uint8_t> payload;
  uint64_t consumed = 0;
  inner_->bulk_load(count, [&](uint64_t i) {
    std::pair<std::string, std::string> kv = item(i);
    // Engines consume the ascending stream exactly once in order, so the
    // forwarding pass doubles as the snapshot serialization pass.
    DAMKIT_CHECK_MSG(i == consumed, "bulk_load items consumed out of order");
    ++consumed;
    append_entry(&payload, kv.first, kv.second);
    return kv;
  });
  DAMKIT_CHECK_MSG(consumed == count, "bulk_load did not consume every item");
  SnapshotMeta meta;
  meta.seq = ++snapshot_seq_;
  meta.last_lsn = log_.next_lsn() - 1;
  meta.entries = count;
  meta.payload_bytes = payload.size();
  DAMKIT_CHECK_OK(snapshot_.write(meta, payload));
  DAMKIT_CHECK_OK(log_.reset(log_.next_lsn()));
}

void DurableEngine::flush() {
  DAMKIT_CHECK_OK(log_.commit());
  inner_->flush();
}

Status DurableEngine::checkpoint() {
  in_checkpoint_ = true;
  const auto done = [this](Status s) {
    in_checkpoint_ = false;
    return s;
  };
  DAMKIT_RETURN_IF_ERROR(done(log_.commit()));
  DAMKIT_RETURN_IF_ERROR(done(inner_->checkpoint()));
  // The checkpoint LSN: every mutation up to here is in the inner engine
  // and will be in the snapshot; the WAL only needs what comes after.
  const uint64_t checkpoint_lsn = log_.next_lsn() - 1;
  std::vector<uint8_t> payload;
  uint64_t entries = 0;
  DAMKIT_RETURN_IF_ERROR(done(serialize_state(&payload, &entries)));
  SnapshotMeta meta;
  meta.seq = snapshot_seq_ + 1;  // bump only once the write lands
  meta.last_lsn = checkpoint_lsn;
  meta.entries = entries;
  meta.payload_bytes = payload.size();
  DAMKIT_RETURN_IF_ERROR(done(snapshot_.write(meta, payload)));
  snapshot_seq_ = meta.seq;
  DAMKIT_RETURN_IF_ERROR(done(log_.truncate(log_.next_lsn())));
  ++checkpoints_;
  return done(Status());
}

Status DurableEngine::serialize_state(std::vector<uint8_t>* payload,
                                      uint64_t* entries) {
  payload->clear();
  *entries = 0;
  std::string lo;
  while (true) {
    StatusOr<std::vector<std::pair<std::string, std::string>>> rows =
        inner_->try_range_scan(lo, kSnapshotScanChunk);
    if (!rows.ok()) return rows.status();
    for (const auto& [k, v] : *rows) {
      append_entry(payload, k, v);
      ++*entries;
    }
    if (rows->size() < kSnapshotScanChunk) break;
    // Strictly after the last key: the shortest key greater than it.
    lo = rows->back().first;
    lo.push_back('\0');
  }
  return Status();
}

void DurableEngine::abandon() {
  // Buffered WAL records die with the process by definition of a crash;
  // the inner engine drops its dirty cache the same way.
  inner_->abandon();
}

void DurableEngine::export_metrics(stats::MetricsRegistry& reg,
                                   std::string_view prefix) const {
  inner_->export_metrics(reg, prefix);
  log_.export_metrics(reg, prefix);
  snapshot_.export_metrics(reg, prefix);
  const std::string p(prefix);
  reg.add(p + "wal.checkpoints", checkpoints_);
  reg.add(p + "wal.auto_checkpoints", auto_checkpoints_);
  reg.add(p + "recovery.runs", recovered_ ? 1 : 0);
  reg.add(p + "recovery.snapshot_entries", recovery_.snapshot_entries);
  reg.add(p + "recovery.replayed_records", recovery_.replayed_records);
  reg.add(p + "recovery.durable_lsn", recovery_.durable_lsn);
  reg.add(p + "recovery.torn_tail", recovery_.torn_tail ? 1 : 0);
  reg.add(p + "recovery.stale_records", recovery_.stale_records);
}

StatusOr<std::unique_ptr<DurableEngine>> DurableEngine::recover(
    const std::function<std::unique_ptr<kv::Dictionary>()>& make_inner,
    sim::Device& dev, sim::IoContext& io, const DurabilityConfig& cfg,
    RecoveryReport* report) {
  std::unique_ptr<DurableEngine> engine(
      new DurableEngine(RecoverTag{}, make_inner(), dev, io, cfg));

  // 1. The newest verifiable snapshot (either slot), or empty state.
  SnapshotMeta meta;
  std::vector<uint8_t> payload;
  StatusOr<bool> has = engine->snapshot_.load(&meta, &payload);
  DAMKIT_RETURN_IF_ERROR(has.status());
  RecoveryReport rep;
  if (*has) {
    std::vector<std::pair<std::string, std::string>> entries;
    entries.reserve(meta.entries);
    size_t pos = 0;
    for (uint64_t i = 0; i < meta.entries; ++i) {
      if (pos + 8 > payload.size()) {
        return Status::corruption("snapshot payload truncated");
      }
      const uint64_t klen = load_u32(payload.data() + pos);
      const uint64_t vlen = load_u32(payload.data() + pos + 4);
      if (pos + 8 + klen + vlen > payload.size()) {
        return Status::corruption("snapshot entry past payload end");
      }
      entries.emplace_back(
          std::string(reinterpret_cast<const char*>(payload.data() + pos + 8),
                      klen),
          std::string(
              reinterpret_cast<const char*>(payload.data() + pos + 8 + klen),
              vlen));
      pos += 8 + klen + vlen;
    }
    if (!entries.empty()) {
      engine->inner_->bulk_load(
          entries.size(),
          [&entries](uint64_t i) { return entries[static_cast<size_t>(i)]; });
    }
    engine->snapshot_seq_ = meta.seq;
    rep.snapshot_entries = meta.entries;
    rep.snapshot_lsn = meta.last_lsn;
  }

  // 2. Replay the WAL's valid prefix on top of the snapshot state.
  StatusOr<WriteAheadLog::ReplayResult> scan =
      engine->log_.recover_scan(meta.last_lsn + 1);
  DAMKIT_RETURN_IF_ERROR(scan.status());
  for (const WriteAheadLog::Record& r : scan->records) {
    Status applied;
    switch (r.type) {
      case WriteAheadLog::RecordType::kPut:
        applied = engine->inner_->try_put(r.key, r.value);
        break;
      case WriteAheadLog::RecordType::kErase:
        applied = engine->inner_->try_erase(r.key);
        break;
      case WriteAheadLog::RecordType::kUpsert: {
        if (r.value.size() != 8) {
          return Status::corruption("upsert record with malformed delta");
        }
        const int64_t delta = static_cast<int64_t>(
            load_u64(reinterpret_cast<const uint8_t*>(r.value.data())));
        applied = engine->inner_->try_upsert(r.key, delta);
        break;
      }
    }
    // kInvalidArgument changes nothing and depends on the arguments alone
    // (kv::Dictionary): the live call was rejected the same way. Skip it.
    if (applied.code() == StatusCode::kInvalidArgument) {
      ++rep.rejected_records;
      continue;
    }
    DAMKIT_RETURN_IF_ERROR(applied);
  }
  rep.replayed_records = scan->records.size();
  rep.durable_lsn = engine->log_.next_lsn() - 1;
  rep.torn_tail = scan->torn_tail;
  rep.stale_records = scan->stale_records;
  engine->recovery_ = rep;
  engine->recovered_ = true;
  if (report != nullptr) *report = rep;
  return StatusOr<std::unique_ptr<DurableEngine>>(std::move(engine));
}

std::unique_ptr<kv::Dictionary> make_durable(
    std::unique_ptr<kv::Dictionary> inner, sim::Device& dev,
    sim::IoContext& io, const DurabilityConfig& cfg) {
  return std::make_unique<DurableEngine>(std::move(inner), dev, io, cfg);
}

}  // namespace damkit::wal
