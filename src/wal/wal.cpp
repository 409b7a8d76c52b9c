#include "wal/wal.h"

#include <algorithm>
#include <utility>

#include "util/bytes.h"
#include "util/hash.h"

namespace damkit::wal {

namespace {

// "KWAL" in little-endian byte order; 0 never collides with it, so zeroed
// padding/fence bytes read as a clean log end.
constexpr uint32_t kRecordMagic = 0x4C41574Bu;
// magic + lsn + type + klen + vlen.
constexpr uint64_t kHeaderBytes = 4 + 8 + 1 + 4 + 4;
constexpr uint64_t kCheckBytes = 8;
// Bytes fetched per replay read; parsing stops at the frontier, so replay
// cost scales with live log bytes, not region size.
constexpr uint64_t kReplayChunk = 256ULL << 10;

}  // namespace

WriteAheadLog::WriteAheadLog(sim::Device& dev, sim::IoContext& io,
                             const WalConfig& cfg)
    : dev_(&dev), io_(&io), cfg_(cfg) {
  DAMKIT_CHECK_MSG(cfg_.block_bytes > kHeaderBytes + kCheckBytes,
                   "WAL block_bytes too small: " << cfg_.block_bytes);
  DAMKIT_CHECK_MSG(cfg_.region_bytes >= 2 * cfg_.block_bytes &&
                       cfg_.region_bytes % cfg_.block_bytes == 0,
                   "WAL region must be >= 2 blocks and block-aligned");
  DAMKIT_CHECK_MSG(cfg_.base_offset + cfg_.region_bytes <=
                       dev_->capacity_bytes(),
                   "WAL region past device end");
  DAMKIT_CHECK_MSG(cfg_.group_ops > 0, "group_ops must be >= 1");
}

uint64_t WriteAheadLog::record_bytes(std::string_view key,
                                     std::string_view value) {
  return kHeaderBytes + key.size() + value.size() + kCheckBytes;
}

Status WriteAheadLog::reset(uint64_t next_lsn) {
  buffer_.clear();
  buffer_records_ = 0;
  return truncate(next_lsn);
}

Status WriteAheadLog::truncate(uint64_t next_lsn) {
  DAMKIT_CHECK_MSG(buffer_.empty(),
                   "truncate with " << buffer_records_
                                    << " uncommitted records; commit first");
  tail_ = 0;
  tail_partial_.clear();
  next_lsn_ = next_lsn;
  ++truncations_;
  // Fence: the region base must not parse as live log until re-appended.
  return write_blocks(0, std::vector<uint8_t>(cfg_.block_bytes, 0));
}

Status WriteAheadLog::append(RecordType type, std::string_view key,
                             std::string_view value, uint64_t lsn) {
  DAMKIT_CHECK_MSG(lsn == next_lsn_, "WAL append lsn " << lsn << " != next "
                                                       << next_lsn_);
  const uint64_t rec = record_bytes(key, value);
  if (rec + 2 * cfg_.block_bytes > cfg_.region_bytes) {
    return Status::invalid_argument(
        "record of " + std::to_string(rec) + " bytes cannot fit the " +
        std::to_string(cfg_.region_bytes) + "-byte WAL region");
  }
  // A group whose commit failed is still pending: retry it before this
  // record joins. A stuck log then costs one commit attempt per append,
  // and an append that cannot land the group takes no LSN.
  if (commit_due()) DAMKIT_RETURN_IF_ERROR(commit());
  const size_t at = buffer_.size();
  buffer_.resize(at + rec);
  uint8_t* p = buffer_.data() + at;
  store_u32(p, kRecordMagic);
  store_u64(p + 4, lsn);
  p[12] = static_cast<uint8_t>(type);
  store_u32(p + 13, static_cast<uint32_t>(key.size()));
  store_u32(p + 17, static_cast<uint32_t>(value.size()));
  std::copy(key.begin(), key.end(), p + kHeaderBytes);
  std::copy(value.begin(), value.end(), p + kHeaderBytes + key.size());
  store_u64(p + rec - kCheckBytes,
            hash_bytes({p, static_cast<size_t>(rec - kCheckBytes)}));

  ++next_lsn_;
  ++records_appended_;
  ++buffer_records_;
  return commit_due() ? commit() : Status();
}

Status WriteAheadLog::commit() {
  if (buffer_.empty()) return Status();
  const uint64_t bb = cfg_.block_bytes;
  const uint64_t first_block = tail_ / bb;

  // The new tail-block image repeats the already-durable partial bytes
  // verbatim, then the buffered records, then zero padding. A zeroed fence
  // block follows whenever fewer than a record header's worth of padding
  // would separate the content from whatever stale bytes come next.
  std::vector<uint8_t> content = tail_partial_;
  content.insert(content.end(), buffer_.begin(), buffer_.end());
  const uint64_t content_bytes = content.size();
  uint64_t padded = align_up(content_bytes, bb);
  if (padded - content_bytes < kHeaderBytes) padded += bb;
  if (first_block * bb + padded > cfg_.region_bytes) {
    return Status::resource_exhausted(
        "WAL region full: " + std::to_string(tail_ + buffer_.size()) +
        " content bytes of " + std::to_string(cfg_.region_bytes) +
        "; checkpoint to truncate");
  }
  // The new partial-tail cache is the last (new_tail % block) bytes of the
  // content — capture it before the content is padded and moved.
  const uint64_t new_tail = tail_ + buffer_.size();
  const uint64_t rem = new_tail % bb;
  std::vector<uint8_t> partial(content.begin() + (content_bytes - rem),
                               content.begin() + content_bytes);
  content.resize(padded, 0);
  DAMKIT_RETURN_IF_ERROR(write_blocks(first_block, std::move(content)));

  ++commits_;
  committed_bytes_ += buffer_.size();
  tail_ = new_tail;
  tail_partial_ = std::move(partial);
  buffer_.clear();
  buffer_records_ = 0;
  return Status();
}

Status WriteAheadLog::write_blocks(uint64_t first_block,
                                   std::vector<uint8_t>&& content) {
  const uint64_t bb = cfg_.block_bytes;
  DAMKIT_CHECK(content.size() % bb == 0 && !content.empty());
  const uint64_t blocks = content.size() / bb;
  std::vector<sim::IoRequest> reqs;
  reqs.reserve(blocks);
  for (uint64_t b = 0; b < blocks; ++b) {
    reqs.push_back(
        {sim::IoKind::kWrite, cfg_.base_offset + (first_block + b) * bb, bb});
  }
  const std::span<const uint8_t> all(content);
  // One SQ/CQ batch per attempt; a retry rewrites each failed block in
  // full, which is also the torn-write repair.
  const Status s = io_->submit_batch_checked(
      reqs, [&](size_t b, const Status& verdict) {
        dev_->settle_write(reqs[b].offset, all.subspan(b * bb, bb), verdict);
        return Status();
      });
  if (s.ok()) commit_blocks_ += blocks;
  return s;
}

Status WriteAheadLog::seal() {
  const uint64_t bb = cfg_.block_bytes;
  std::vector<uint8_t> content = tail_partial_;
  uint64_t padded = align_up(std::max<uint64_t>(content.size(), 1), bb);
  if (padded - content.size() < kHeaderBytes) padded += bb;
  padded = std::min(padded, cfg_.region_bytes - (tail_ / bb) * bb);
  content.resize(padded, 0);
  return write_blocks(tail_ / bb, std::move(content));
}

StatusOr<WriteAheadLog::ReplayResult> WriteAheadLog::recover_scan(
    uint64_t start_lsn) {
  ReplayResult result;
  std::vector<uint8_t> data;
  uint64_t fetched = 0;
  // Fetch-on-demand: replay cost tracks the live prefix, not the region.
  const auto ensure = [&](uint64_t upto) -> Status {
    upto = std::min(upto, cfg_.region_bytes);
    while (fetched < upto) {
      const uint64_t len = std::min(kReplayChunk, cfg_.region_bytes - fetched);
      data.resize(fetched + len);
      DAMKIT_RETURN_IF_ERROR(io_->read_checked(
          cfg_.base_offset + fetched,
          std::span<uint8_t>(data.data() + fetched, len)));
      fetched += len;
    }
    return Status();
  };

  uint64_t pos = 0;
  uint64_t expected = start_lsn;
  while (pos + kHeaderBytes + kCheckBytes <= cfg_.region_bytes) {
    DAMKIT_RETURN_IF_ERROR(ensure(pos + kHeaderBytes));
    const uint8_t* h = data.data() + pos;
    const uint32_t magic = load_u32(h);
    if (magic == 0) break;  // zero padding / fence: clean end
    if (magic != kRecordMagic) {
      result.torn_tail = true;
      break;
    }
    const uint64_t lsn = load_u64(h + 4);
    const uint8_t type = h[12];
    const uint64_t klen = load_u32(h + 13);
    const uint64_t vlen = load_u32(h + 17);
    const uint64_t total = kHeaderBytes + klen + vlen + kCheckBytes;
    if (type < 1 || type > 3 || pos + total > cfg_.region_bytes) {
      result.torn_tail = true;
      break;
    }
    DAMKIT_RETURN_IF_ERROR(ensure(pos + total));
    const uint8_t* rec = data.data() + pos;
    const uint64_t check = load_u64(rec + total - kCheckBytes);
    if (hash_bytes({rec, static_cast<size_t>(total - kCheckBytes)}) != check) {
      result.torn_tail = true;
      break;
    }
    if (lsn != expected) {
      // A valid frame with a pre-truncation LSN is normal region reuse; a
      // *future* LSN means a hole in the sequence — that is torn state.
      if (lsn < expected) {
        ++result.stale_records;
      } else {
        result.torn_tail = true;
      }
      break;
    }
    Record r;
    r.lsn = lsn;
    r.type = static_cast<RecordType>(type);
    r.key.assign(reinterpret_cast<const char*>(rec + kHeaderBytes), klen);
    r.value.assign(reinterpret_cast<const char*>(rec + kHeaderBytes + klen),
                   vlen);
    result.records.push_back(std::move(r));
    ++expected;
    pos += total;
  }
  result.scanned_bytes = fetched;

  // Position for appends at the end of the valid prefix.
  tail_ = pos;
  const uint64_t rem = pos % cfg_.block_bytes;
  tail_partial_.assign(data.begin() + (pos - rem), data.begin() + pos);
  buffer_.clear();
  buffer_records_ = 0;
  next_lsn_ = expected;
  if (result.torn_tail) ++replay_torn_tails_;
  replay_stale_records_ += result.stale_records;
  // Bury the dead frontier so it cannot be re-read as live log by a later
  // scan — this is the only write recovery performs, and it rewrites the
  // valid prefix bytes verbatim, so recovering twice is idempotent.
  if (result.torn_tail || result.stale_records > 0) {
    DAMKIT_RETURN_IF_ERROR(seal());
  }
  return result;
}

void WriteAheadLog::export_metrics(stats::MetricsRegistry& reg,
                                   std::string_view prefix) const {
  const std::string p(prefix);
  reg.add(p + "wal.records_appended", records_appended_);
  reg.add(p + "wal.commits", commits_);
  reg.add(p + "wal.committed_bytes", committed_bytes_);
  reg.add(p + "wal.commit_blocks", commit_blocks_);
  reg.add(p + "wal.truncations", truncations_);
  reg.add(p + "wal.torn_tail", replay_torn_tails_);
  reg.add(p + "wal.stale_records", replay_stale_records_);
  reg.set(p + "wal.durable_bytes", static_cast<double>(tail_));
  reg.set(p + "wal.buffered_bytes", static_cast<double>(buffer_.size()));
}

}  // namespace damkit::wal
