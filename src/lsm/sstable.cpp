#include "lsm/sstable.h"

#include <algorithm>

#include "kv/slice.h"
#include "node/sorted_page.h"

namespace damkit::lsm {

SSTableBuilder::SSTableBuilder(sim::Device& dev, sim::IoContext& io,
                               blockdev::ByteArena& arena, uint64_t block_bytes,
                               uint64_t sequence,
                               const blockdev::BlockCodec* codec,
                               uint64_t expected_entries)
    : dev_(&dev),
      io_(&io),
      arena_(&arena),
      block_bytes_(block_bytes),
      sequence_(sequence),
      codec_(codec != nullptr &&
                     codec->kind() != blockdev::CodecKind::kIdentity
                 ? codec
                 : nullptr) {
  DAMKIT_CHECK(block_bytes_ >= 256);
  key_hashes_.reserve(expected_entries);
}

SSTableBuilder::~SSTableBuilder() = default;

void SSTableBuilder::add(const EntryView& entry) {
  DAMKIT_CHECK(!finished_);
  DAMKIT_CHECK_MSG(count_ == 0 || kv::compare(last_key_, entry.key) < 0,
                   "SSTable keys must be strictly ascending");
  if (count_ == 0) first_key_ = entry.key;
  last_key_ = entry.key;

  if (block_.empty()) {
    index_.push_back({std::string(entry.key), data_.size(), 0, 0});
  }
  const size_t at = block_.size();
  block_.resize(at + node::TaggedRecord::encoded_size(entry.key.size(),
                                                      entry.value.size()));
  node::TaggedRecord::encode(block_.data() + at, entry.tombstone ? 1 : 0,
                             entry.key, entry.value);
  ++index_.back().entries;
  key_hashes_.push_back(BloomFilter::hash(entry.key));
  ++count_;
  if (block_.size() >= block_bytes_) flush_block();
}

void SSTableBuilder::flush_block() {
  if (block_.empty()) return;
  if (codec_ != nullptr) {
    // Blocks are framed individually so a point read still costs exactly
    // one (now smaller) block IO; the index addresses physical extents.
    codec_->encode(block_, enc_);
    index_.back().length = static_cast<uint32_t>(enc_.size());
    data_.insert(data_.end(), enc_.begin(), enc_.end());
  } else {
    index_.back().length = static_cast<uint32_t>(block_.size());
    data_.insert(data_.end(), block_.begin(), block_.end());
  }
  block_.clear();
}

StatusOr<SSTableRef> SSTableBuilder::try_finish() {
  DAMKIT_CHECK(!finished_);
  finished_ = true;
  if (count_ == 0) return SSTableRef(nullptr);
  flush_block();

  auto table = std::shared_ptr<SSTable>(new SSTable());
  table->dev_ = dev_;
  table->arena_ = arena_;
  table->codec_ = codec_;
  table->entry_count_ = count_;
  table->sequence_ = sequence_;
  table->min_key_ = std::move(first_key_);
  table->max_key_ = std::move(last_key_);
  table->data_bytes_ = data_.size();

  table->bloom_ = BloomFilter(count_, kBloomBitsPerKey);
  for (const BloomFilter::Hashes& h : key_hashes_) table->bloom_.add(h);

  table->index_ = std::move(index_);

  // The written image includes the metadata footprint (index keys +
  // bloom bits) so device bytes reflect the real storage cost, even
  // though the handle keeps the metadata resident.
  uint64_t meta_bytes = table->bloom_.byte_size();
  for (const auto& ie : table->index_) {
    meta_bytes += 16 + ie.first_key.size();
  }
  table->total_bytes_ = data_.size() + meta_bytes;

  StatusOr<uint64_t> offset = arena_->try_allocate(table->total_bytes_);
  DAMKIT_RETURN_IF_ERROR(offset.status());
  table->device_offset_ = *offset;
  // One streaming write: data payload followed by (opaque) metadata pad.
  data_.resize(table->total_bytes_);
  const Status written = io_->write_checked(table->device_offset_, data_);
  if (!written.ok()) {
    // No table came into existence: hand the extent back. The caller must
    // keep the source data (e.g. the memtable) authoritative.
    arena_->free(table->device_offset_, table->total_bytes_);
    return written;
  }
  return SSTableRef(std::move(table));
}

SSTable::~SSTable() = default;

void SSTable::release() const {
  if (!released_ && arena_ != nullptr) {
    arena_->free(device_offset_, total_bytes_);
    released_ = true;
  }
}

bool SSTable::overlaps(std::string_view lo, std::string_view hi) const {
  return kv::compare(max_key_, lo) >= 0 && kv::compare(min_key_, hi) <= 0;
}

Status SSTable::try_read_blocks(size_t first, size_t end, sim::IoContext& io,
                                bool charge_io,
                                std::vector<uint8_t>* run) const {
  DAMKIT_CHECK(first < end && end <= index_.size());
  DAMKIT_CHECK_MSG(!released_, "read from released SSTable");
  const BlockIndexEntry& head = index_[first];
  const BlockIndexEntry& tail = index_[end - 1];
  const uint64_t offset = device_offset_ + head.offset;
  // Uncompressed blocks are already wire-format records back to back and
  // land in `*run` directly; codec frames are staged for decoding.
  std::vector<uint8_t> stored;
  std::vector<uint8_t>& buf = codec_ == nullptr ? *run : stored;
  buf.resize(tail.offset + tail.length - head.offset);
  if (charge_io) {
    DAMKIT_RETURN_IF_ERROR(io.read_checked(offset, buf));
  } else {
    dev_->read_bytes(offset, buf);
  }
  if (codec_ == nullptr) return Status();
  // Each block is its own codec frame: decode them one by one and splice
  // the raw blocks back into one contiguous run.
  run->clear();
  std::vector<uint8_t> raw;
  for (size_t b = first; b < end; ++b) {
    const BlockIndexEntry& ie = index_[b];
    const auto frame = std::span<const uint8_t>(stored).subspan(
        ie.offset - head.offset, ie.length);
    if (!codec_->decode(frame, raw)) {
      return Status::corruption("SSTable block " + std::to_string(b) +
                                ": stored codec frame failed to decode");
    }
    run->insert(run->end(), raw.begin(), raw.end());
  }
  return Status();
}

size_t SSTable::blocks_through(std::string_view key) const {
  const auto after = std::upper_bound(
      index_.begin(), index_.end(), key,
      [](std::string_view k, const BlockIndexEntry& e) {
        return kv::compare(k, e.first_key) < 0;
      });
  return static_cast<size_t>(after - index_.begin());
}

StatusOr<std::optional<Entry>> SSTable::try_get(std::string_view key,
                                                sim::IoContext& io) const {
  if (kv::compare(key, min_key_) < 0 || kv::compare(key, max_key_) > 0) {
    return std::optional<Entry>();
  }
  if (!bloom_.may_contain(key)) return std::optional<Entry>();
  // Only the last block whose first key <= key can hold it.
  const size_t through = blocks_through(key);
  if (through == 0) return std::optional<Entry>();
  const size_t block_idx = through - 1;
  std::vector<uint8_t> raw;
  DAMKIT_RETURN_IF_ERROR(
      try_read_blocks(block_idx, through, io, /*charge_io=*/true, &raw));
  // Index the block in place and binary-search it without materializing
  // entries; only a hit is copied out.
  node::TaggedPage page;
  page.parse(raw.data(), raw.size(), index_[block_idx].entries);
  const std::optional<size_t> pos = page.find(key);
  if (!pos.has_value()) return std::optional<Entry>();
  const node::TaggedRecord::View rec =
      node::TaggedRecord::view(node::detail::bytes_of(page.record(*pos)));
  return std::optional<Entry>(Entry{std::string(rec.value()), rec.tag != 0});
}

SSTable::Iterator::Iterator(const SSTable* table, sim::IoContext* io,
                            std::string_view lo, size_t readahead_blocks,
                            bool charge_io)
    : table_(table),
      io_(io),
      readahead_(std::max<size_t>(readahead_blocks, 1)),
      charge_io_(charge_io) {
  // First block that could contain keys >= lo.
  load_blocks(std::max<size_t>(table_->blocks_through(lo), 1) - 1);
  // Skip entries below lo.
  while (valid_ && kv::compare(current_.key, lo) < 0) next();
}

void SSTable::Iterator::load_blocks(size_t first_block) {
  if (first_block >= table_->index_.size()) {
    valid_ = false;
    return;
  }
  const size_t end = std::min(first_block + readahead_, table_->index_.size());
  // Blocks are contiguous in the image: one IO covers the whole run.
  status_ = table_->try_read_blocks(first_block, end, *io_, charge_io_, &run_);
  if (!status_.ok()) {
    // The cursor stops here; the failure is reported via status() and
    // valid() goes false so merge loops terminate cleanly.
    valid_ = false;
    return;
  }
  run_remaining_ = 0;
  for (size_t b = first_block; b < end; ++b) {
    run_remaining_ += table_->index_[b].entries;
  }
  DAMKIT_CHECK(run_remaining_ > 0);
  next_block_ = end;
  run_pos_ = 0;
  view_record();
}

void SSTable::Iterator::view_record() {
  // The record count comes from the resident index, but the lengths come
  // from device bytes: check each record fits before borrowing it.
  const uint8_t* p = run_.data() + run_pos_;
  const size_t left = run_.size() - run_pos_;
  if (left < node::TaggedRecord::kHeaderBytes ||
      node::TaggedRecord::length(p) > left) {
    status_ = Status::corruption("SSTable record at run byte " +
                                 std::to_string(run_pos_) +
                                 " overruns its decoded blocks");
    valid_ = false;
    return;
  }
  current_ = EntryView::of(node::TaggedRecord::view(p));
  valid_ = true;
}

void SSTable::Iterator::next() {
  DAMKIT_CHECK(valid_);
  if (run_remaining_ > 1) {
    run_pos_ += node::TaggedRecord::length(run_.data() + run_pos_);
    --run_remaining_;
    view_record();
    return;
  }
  load_blocks(next_block_);
}

SSTable::Iterator SSTable::seek(std::string_view lo, sim::IoContext& io,
                                size_t readahead_blocks, bool charge_io) const {
  return Iterator(this, &io, lo, readahead_blocks, charge_io);
}

std::vector<sim::IoRequest> SSTable::run_requests(
    size_t readahead_blocks) const {
  DAMKIT_CHECK_MSG(!released_, "run_requests on released SSTable");
  const size_t readahead = std::max<size_t>(readahead_blocks, 1);
  std::vector<sim::IoRequest> reqs;
  for (size_t b = 0; b < index_.size(); b += readahead) {
    const size_t end = std::min(b + readahead, index_.size());
    const BlockIndexEntry& first = index_[b];
    const BlockIndexEntry& last = index_[end - 1];
    reqs.push_back({sim::IoKind::kRead, device_offset_ + first.offset,
                    last.offset + last.length - first.offset});
  }
  return reqs;
}

}  // namespace damkit::lsm
