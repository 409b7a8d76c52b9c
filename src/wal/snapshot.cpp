#include "wal/snapshot.h"

#include <algorithm>

#include "util/bytes.h"
#include "util/hash.h"

namespace damkit::wal {

namespace {

constexpr uint32_t kHeaderMagic = 0x504E534Bu;  // "KSNP"
// magic + seq + last_lsn + entries + payload_bytes + payload_check.
constexpr uint64_t kHeaderPayload = 4 + 5 * 8;
constexpr uint64_t kHeaderBytes = kHeaderPayload + 8;  // + header_check
// Device-request granularity for payload transfer.
constexpr uint64_t kIoChunk = 256ULL << 10;

}  // namespace

SnapshotStore::SnapshotStore(sim::Device& dev, sim::IoContext& io,
                             const SnapshotConfig& cfg)
    : dev_(&dev), io_(&io), cfg_(cfg) {
  DAMKIT_CHECK_MSG(cfg_.block_bytes >= kHeaderBytes,
                   "snapshot block_bytes too small");
  DAMKIT_CHECK_MSG(cfg_.slot_bytes >= 2 * cfg_.block_bytes &&
                       cfg_.slot_bytes % cfg_.block_bytes == 0,
                   "snapshot slot must be >= 2 blocks and block-aligned");
  DAMKIT_CHECK_MSG(
      cfg_.base_offset + 2 * cfg_.slot_bytes <= dev_->capacity_bytes(),
      "snapshot slots past device end");
}

Status SnapshotStore::write(const SnapshotMeta& meta,
                            std::span<const uint8_t> payload) {
  DAMKIT_CHECK_MSG(meta.payload_bytes == payload.size(),
                   "snapshot meta/payload size mismatch");
  const uint64_t bb = cfg_.block_bytes;
  const uint64_t slot = slot_offset(meta.seq);
  const uint64_t padded = align_up(std::max<uint64_t>(payload.size(), 1), bb);
  if (bb + padded > cfg_.slot_bytes) {
    return Status::resource_exhausted(
        "snapshot payload of " + std::to_string(payload.size()) +
        " bytes does not fit a " + std::to_string(cfg_.slot_bytes) +
        "-byte slot");
  }

  // Phase 1: payload blocks, one batch per attempt. A torn or failed
  // chunk is repaired by rewriting it alone; nothing is loadable until the
  // header lands, so partial payload states are harmless. Chunks wholly
  // inside the payload are written from it; the rest, from the chunk
  // holding the payload's end on, come from a zero-padded copy of it.
  const uint64_t tail_at = payload.size() / kIoChunk * kIoChunk;
  std::vector<uint8_t> tail_bytes(payload.begin() + tail_at, payload.end());
  tail_bytes.resize(padded - tail_at, 0);
  const std::span<const uint8_t> tail(tail_bytes);
  std::vector<sim::IoRequest> reqs;
  for (uint64_t off = 0; off < padded; off += kIoChunk) {
    reqs.push_back({sim::IoKind::kWrite, slot + bb + off,
                    std::min(kIoChunk, padded - off)});
  }
  DAMKIT_RETURN_IF_ERROR(io_->submit_batch_checked(
      reqs, [&](size_t i, const Status& verdict) {
        const uint64_t off = reqs[i].offset - (slot + bb);
        const std::span<const uint8_t> src =
            off < tail_at ? payload.subspan(off) : tail.subspan(off - tail_at);
        dev_->settle_write(reqs[i].offset, src.first(reqs[i].length), verdict);
        return Status();
      }));

  // Phase 2: the header block, strictly after the payload is durable —
  // this single block write is the snapshot's commit point.
  std::vector<uint8_t> header(bb, 0);
  DAMKIT_CHECK(header.size() >= kHeaderBytes);
  store_u32(header.data(), kHeaderMagic);
  store_u64(header.data() + 4, meta.seq);
  store_u64(header.data() + 12, meta.last_lsn);
  store_u64(header.data() + 20, meta.entries);
  store_u64(header.data() + 28, meta.payload_bytes);
  store_u64(header.data() + 36, hash_bytes(payload));
  store_u64(header.data() + kHeaderPayload,
            hash_bytes({header.data(), kHeaderPayload}));
  DAMKIT_RETURN_IF_ERROR(io_->write_checked(slot, header));

  ++writes_;
  written_bytes_ += payload.size();
  return Status();
}

StatusOr<bool> SnapshotStore::load_slot(int slot, SnapshotMeta* meta,
                                        std::vector<uint8_t>* payload) {
  const uint64_t bb = cfg_.block_bytes;
  const uint64_t at =
      cfg_.base_offset + static_cast<uint64_t>(slot) * cfg_.slot_bytes;
  std::vector<uint8_t> header(bb);
  DAMKIT_RETURN_IF_ERROR(io_->read_checked(at, header));
  const uint32_t magic = load_u32(header.data());
  if (magic != kHeaderMagic) {
    if (magic != 0) ++invalid_slots_;
    return false;
  }
  if (hash_bytes({header.data(), kHeaderPayload}) !=
      load_u64(header.data() + kHeaderPayload)) {
    ++invalid_slots_;
    return false;
  }
  SnapshotMeta m;
  m.seq = load_u64(header.data() + 4);
  m.last_lsn = load_u64(header.data() + 12);
  m.entries = load_u64(header.data() + 20);
  m.payload_bytes = load_u64(header.data() + 28);
  const uint64_t payload_check = load_u64(header.data() + 36);
  if (m.payload_bytes > cfg_.slot_bytes - bb ||
      static_cast<int>(m.seq % 2) != slot) {
    ++invalid_slots_;
    return false;
  }
  std::vector<uint8_t> body(m.payload_bytes);
  for (uint64_t off = 0; off < m.payload_bytes; off += kIoChunk) {
    const uint64_t len = std::min(kIoChunk, m.payload_bytes - off);
    DAMKIT_RETURN_IF_ERROR(io_->read_checked(
        at + bb + off, std::span<uint8_t>(body.data() + off, len)));
  }
  if (hash_bytes(body) != payload_check) {
    // The interrupted-checkpoint signature: a stale header over a payload
    // that was being overwritten when the crash hit.
    ++invalid_slots_;
    return false;
  }
  *meta = m;
  *payload = std::move(body);
  return true;
}

StatusOr<bool> SnapshotStore::load(SnapshotMeta* meta,
                                   std::vector<uint8_t>* payload) {
  ++loads_;
  SnapshotMeta best;
  std::vector<uint8_t> best_payload;
  bool found = false;
  for (int slot = 0; slot < 2; ++slot) {
    SnapshotMeta m;
    std::vector<uint8_t> body;
    StatusOr<bool> ok = load_slot(slot, &m, &body);
    DAMKIT_RETURN_IF_ERROR(ok.status());
    if (*ok && (!found || m.seq > best.seq)) {
      best = m;
      best_payload = std::move(body);
      found = true;
    }
  }
  if (!found) {
    *meta = SnapshotMeta{};
    payload->clear();
    return false;
  }
  *meta = best;
  *payload = std::move(best_payload);
  return true;
}

void SnapshotStore::export_metrics(stats::MetricsRegistry& reg,
                                   std::string_view prefix) const {
  const std::string p(prefix);
  reg.add(p + "snapshot.writes", writes_);
  reg.add(p + "snapshot.written_bytes", written_bytes_);
  reg.add(p + "snapshot.loads", loads_);
  reg.add(p + "snapshot.invalid_slots", invalid_slots_);
}

}  // namespace damkit::wal
