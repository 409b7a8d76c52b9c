#include "blockdev/block_device.h"

#include <cstring>

namespace damkit::blockdev {

NodeStore::NodeStore(sim::Device& dev, sim::IoContext& io, uint64_t node_bytes,
                     uint64_t base_offset, CodecKind codec)
    : dev_(&dev),
      io_(&io),
      node_bytes_(node_bytes),
      alloc_(base_offset, node_bytes,
             (dev.capacity_bytes() - base_offset) / node_bytes) {
  DAMKIT_CHECK(node_bytes_ > 0);
  DAMKIT_CHECK(base_offset < dev.capacity_bytes());
  const CodecKind resolved = resolve_codec_kind(codec);
  if (resolved != CodecKind::kIdentity) codec_ = make_codec(resolved);
}

void NodeStore::prepare_write(ByteBuffer& image) {
  const size_t used = image.size();
  DAMKIT_CHECK_MSG(used <= node_bytes_,
                   "node image " << used << " exceeds extent " << node_bytes_);
  image.resize(node_bytes_);
  std::memset(image.data() + used, 0, node_bytes_ - used);
  if (codec_ == nullptr) return;
  codec_->encode(image, enc_scratch_);
  // A frame that does not fit the extent leaves the padded image stored
  // raw (stored_len == node_bytes_ marks it unframed).
  if (enc_scratch_.size() >= node_bytes_) return;
  image.resize(enc_scratch_.size());
  std::memcpy(image.data(), enc_scratch_.data(), enc_scratch_.size());
}

void NodeStore::set_stored_len(uint64_t node_id, uint64_t len) {
  if (node_id >= stored_len_.size()) stored_len_.resize(node_id + 1, 0);
  stored_len_[node_id] = static_cast<uint32_t>(len);
}

NodeStore::PhysSpan NodeStore::physical_span(uint64_t node_id, uint64_t offset,
                                             uint64_t length) const {
  if (!compressed_node(node_id)) return {offset, length};
  // Charge the stored image pro rata: a read of length/node_bytes of the
  // node costs the same fraction of its compressed frame (at least one
  // byte), clamped to fall inside the frame.
  const uint64_t sl = stored_len(node_id);
  const uint64_t plen = std::min(
      sl, std::max<uint64_t>(1, (length * sl + node_bytes_ - 1) / node_bytes_));
  uint64_t poff = offset * sl / node_bytes_;
  if (poff + plen > sl) poff = sl - plen;
  return {poff, plen};
}

Status NodeStore::decode_frame(uint64_t node_id, ByteBuffer& out) {
  if (!codec_->decode(dec_scratch_, decoded_) ||
      decoded_.size() != node_bytes_) {
    return Status::corruption("node " + std::to_string(node_id) +
                              ": stored codec frame failed to decode");
  }
  out.resize(node_bytes_);
  std::memcpy(out.data(), decoded_.data(), node_bytes_);
  return Status();
}

Status NodeStore::fetch_payload(uint64_t node_id, ByteBuffer& out) {
  const uint64_t offset = alloc_.offset_of(node_id);
  if (!compressed_node(node_id)) {
    out.resize(node_bytes_);
    dev_->read_bytes(offset, out);
    return Status();
  }
  dec_scratch_.resize(stored_len(node_id));
  dev_->read_bytes(offset, dec_scratch_);
  return decode_frame(node_id, out);
}

Status NodeStore::try_read_node(uint64_t node_id, ByteBuffer& out) {
  const uint64_t offset = alloc_.offset_of(node_id);
  if (!compressed_node(node_id)) {
    out.resize(node_bytes_);
    DAMKIT_RETURN_IF_ERROR(io_->read_checked(offset, std::span<uint8_t>(out)));
    ++stats_.node_reads;
    stats_.bytes_read += node_bytes_;
    return Status();
  }
  // Partial-extent read of the compressed frame: transfer time is charged
  // for the stored bytes only, setup for the IO as usual.
  dec_scratch_.resize(stored_len(node_id));
  DAMKIT_RETURN_IF_ERROR(
      io_->read_checked(offset, std::span<uint8_t>(dec_scratch_)));
  DAMKIT_RETURN_IF_ERROR(decode_frame(node_id, out));
  ++stats_.node_reads;
  stats_.bytes_read += dec_scratch_.size();
  return Status();
}

Status NodeStore::try_write_node(uint64_t node_id, ByteBuffer& image) {
  // Whole-extent write: the device sees a node_bytes IO, or under a codec
  // a partial-extent write of the frame at the unchanged extent offset. On
  // a torn write the retry rewrites the frame in full; stored_len_ is
  // updated only once the image durably landed, and the try_* contract
  // (the caller keeps failed images dirty) covers the give-up case.
  prepare_write(image);
  DAMKIT_RETURN_IF_ERROR(io_->write_checked(
      alloc_.offset_of(node_id), std::span<const uint8_t>(image)));
  if (codec_ != nullptr) set_stored_len(node_id, image.size());
  ++stats_.node_writes;
  stats_.bytes_written += image.size();
  return Status();
}

Status NodeStore::peek_node(uint64_t node_id, ByteBuffer& out) {
  return fetch_payload(node_id, out);
}

Status NodeStore::try_touch_read(uint64_t node_id, uint64_t offset,
                                 uint64_t length) {
  DAMKIT_CHECK(offset + length <= node_bytes_);
  const PhysSpan ps = physical_span(node_id, offset, length);
  const uint64_t dev_offset = alloc_.offset_of(node_id) + ps.offset;
  DAMKIT_RETURN_IF_ERROR(io_->touch_read_checked(dev_offset, ps.length));
  ++stats_.touch_reads;
  stats_.bytes_read += ps.length;
  return Status();
}

Status NodeStore::try_read_nodes(std::span<const uint64_t> ids,
                                 std::vector<ByteBuffer>& out) {
  out.resize(ids.size());
  if (ids.empty()) return Status();
  std::vector<sim::IoRequest>& reqs = reqs_scratch_;
  reqs.clear();
  reqs.reserve(ids.size());
  uint64_t total_bytes = 0;
  for (const uint64_t id : ids) {
    const uint64_t len = compressed_node(id) ? stored_len(id) : node_bytes_;
    reqs.push_back({sim::IoKind::kRead, alloc_.offset_of(id), len});
    total_bytes += len;
  }
  DAMKIT_RETURN_IF_ERROR(io_->submit_batch_checked(
      reqs, [&](size_t i, const Status& verdict) {
        return verdict.ok() ? fetch_payload(ids[i], out[i]) : Status();
      }));
  ++stats_.read_batches;
  stats_.batched_reads += ids.size();
  stats_.bytes_read += total_bytes;
  return Status();
}

Status NodeStore::try_write_nodes(std::span<const NodeImage> writes,
                                  std::vector<bool>* written) {
  if (written != nullptr) written->assign(writes.size(), false);
  if (writes.empty()) return Status();
  // Prepare every image in place up front so retry attempts reuse the
  // same bytes instead of re-padding per IO per attempt.
  std::vector<sim::IoRequest>& reqs = reqs_scratch_;
  reqs.clear();
  reqs.reserve(writes.size());
  uint64_t total_bytes = 0;
  for (const NodeImage& w : writes) {
    prepare_write(*w.image);
    reqs.push_back({sim::IoKind::kWrite, alloc_.offset_of(w.node_id),
                    w.image->size()});
    total_bytes += w.image->size();
  }
  DAMKIT_RETURN_IF_ERROR(io_->submit_batch_checked(
      reqs, [&](size_t i, const Status& verdict) {
        const ByteBuffer& image = *writes[i].image;
        dev_->settle_write(reqs[i].offset, image, verdict);
        if (verdict.ok()) {
          if (codec_ != nullptr) {
            set_stored_len(writes[i].node_id, image.size());
          }
          if (written != nullptr) (*written)[i] = true;
        }
        return Status();
      }));
  ++stats_.write_batches;
  stats_.batched_writes += writes.size();
  stats_.bytes_written += total_bytes;
  return Status();
}

Status NodeStore::try_touch_read_batch(std::span<const NodeSpan> spans) {
  if (spans.empty()) return Status();
  std::vector<sim::IoRequest>& reqs = reqs_scratch_;
  reqs.clear();
  reqs.reserve(spans.size());
  uint64_t total_bytes = 0;
  for (const NodeSpan& s : spans) {
    DAMKIT_CHECK(s.offset + s.length <= node_bytes_);
    const PhysSpan ps = physical_span(s.node_id, s.offset, s.length);
    reqs.push_back({sim::IoKind::kRead,
                    alloc_.offset_of(s.node_id) + ps.offset, ps.length});
    total_bytes += ps.length;
  }
  DAMKIT_RETURN_IF_ERROR(io_->submit_batch_checked(
      reqs, [](size_t, const Status&) { return Status(); }));
  stats_.bytes_read += total_bytes;
  ++stats_.touch_batches;
  stats_.batched_touches += spans.size();
  return Status();
}

void NodeStore::export_metrics(stats::MetricsRegistry& reg,
                               std::string_view prefix) const {
  const std::string p(prefix);
  reg.add(p + "node_reads", stats_.node_reads);
  reg.add(p + "node_writes", stats_.node_writes);
  reg.add(p + "touch_reads", stats_.touch_reads);
  reg.add(p + "batched_reads", stats_.batched_reads);
  reg.add(p + "batched_writes", stats_.batched_writes);
  reg.add(p + "batched_touches", stats_.batched_touches);
  reg.add(p + "read_batches", stats_.read_batches);
  reg.add(p + "write_batches", stats_.write_batches);
  reg.add(p + "touch_batches", stats_.touch_batches);
  reg.add(p + "bytes_read", stats_.bytes_read);
  reg.add(p + "bytes_written", stats_.bytes_written);
  reg.add(p + "nodes_in_use", alloc_.slots_in_use());
  // codec.* appears only when compression is on, so identity-codec metric
  // snapshots stay byte-identical to the pre-codec ones.
  if (codec_ != nullptr) codec_->stats().export_metrics(reg, p + "codec.");
}

}  // namespace damkit::blockdev
