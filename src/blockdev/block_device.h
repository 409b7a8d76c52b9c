// NodeStore: the trees' view of a device — numbered node extents of a
// fixed size with whole-extent IO and sub-extent timing charges, every
// access charged to an IoContext (and retried there) so the caller's
// simulated clock reflects real device delays.
//
// Whole-node reads/writes model the classic B-tree / Bε-tree IO discipline
// ("a node is the unit of transfer", §5–6); sub-extent touches model the
// Theorem-9 optimized Bε-tree, which exploits the affine model by issuing
// smaller IOs into a known region of a node.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "blockdev/codec.h"
#include "blockdev/extent_allocator.h"
#include "sim/device.h"
#include "stats/metrics.h"
#include "util/bytes.h"

namespace damkit::blockdev {

/// Always-on accounting of the store's IO mix: how much moved through the
/// scalar (one IO, clock advances by the full latency) versus the
/// vectored (one batch, clock advances to the slowest completion) paths.
/// The vectored/scalar ratio is the "did batching actually engage"
/// signal the benches watch.
struct NodeStoreStats {
  uint64_t node_reads = 0;        // whole-extent scalar reads
  uint64_t node_writes = 0;       // whole-extent scalar writes
  uint64_t touch_reads = 0;       // timing-only scalar reads
  uint64_t batched_reads = 0;     // requests through try_read_nodes
  uint64_t batched_writes = 0;    // requests through try_write_nodes
  uint64_t batched_touches = 0;   // requests through try_touch_read_batch
  uint64_t read_batches = 0;      // try_read_nodes calls
  uint64_t write_batches = 0;     // try_write_nodes calls
  uint64_t touch_batches = 0;     // try_touch_read_batch calls
  uint64_t bytes_read = 0;        // payload+timing bytes, both paths
  uint64_t bytes_written = 0;

  void clear() { *this = NodeStoreStats{}; }
};

class NodeStore {
 public:
  /// Carves the device (from `base_offset` up) into node slots of
  /// `node_bytes`. The IoContext is borrowed; it must outlive the store.
  ///
  /// With a non-identity `codec`, every whole-node write compresses the
  /// padded image and stores it at the front of the (unchanged) extent as
  /// a partial-extent IO, so the device charges transfer time only for
  /// the compressed bytes while the allocator layout and setup cost stay
  /// exactly as before — the affine model's point. Reads issue the stored
  /// (compressed) length and decode; sub-extent touch charges are
  /// scaled by the node's stored/logical ratio. Callers keep addressing
  /// nodes in logical (uncompressed) units throughout.
  NodeStore(sim::Device& dev, sim::IoContext& io, uint64_t node_bytes,
            uint64_t base_offset = 0,
            CodecKind codec = CodecKind::kIdentity);

  uint64_t node_bytes() const { return node_bytes_; }
  uint64_t nodes_in_use() const { return alloc_.slots_in_use(); }

  /// The active codec (kIdentity when compression is off).
  CodecKind codec_kind() const {
    return codec_ == nullptr ? CodecKind::kIdentity : codec_->kind();
  }
  /// Physical bytes node_id occupies on the device: its compressed frame
  /// size, or node_bytes() when stored raw / never written.
  uint64_t stored_bytes(uint64_t node_id) const {
    const uint32_t sl = stored_len(node_id);
    return sl == 0 ? node_bytes_ : sl;
  }

  uint64_t allocate() { return alloc_.allocate(); }
  StatusOr<uint64_t> try_allocate() { return alloc_.try_allocate(); }
  void free(uint64_t node_id) {
    alloc_.free(node_id);
    if (node_id < stored_len_.size()) stored_len_[node_id] = 0;
  }

  /// Read the entire node extent into `out` (cost: one IO of node_bytes).
  /// An uncompressed node lands by the device's own copy alone: `out` is
  /// resized without zero-filling and then filled.
  Status try_read_node(uint64_t node_id, ByteBuffer& out);

  /// Write a node image (cost: one IO of node_bytes — classic trees write
  /// whole nodes). `image` is the caller's IO buffer: it is turned in place
  /// into the bytes the extent stores (see prepare_write), so the device's
  /// copy is the only one.
  Status try_write_node(uint64_t node_id, ByteBuffer& image);

  /// Charge a read of `length` bytes at node-relative `offset` without
  /// copying payload (layout experiments where only timing matters).
  Status try_touch_read(uint64_t node_id, uint64_t offset, uint64_t length);

  /// Payload-only read with NO timing charge. Callers must charge the
  /// appropriate (possibly smaller) IO separately via try_touch_read —
  /// this is the OptBeTree sub-node read path, where the IO size is
  /// decided by the pivots the parent level already delivered. Non-OK
  /// (kCorruption) only when a stored codec frame fails to decode.
  Status peek_node(uint64_t node_id, ByteBuffer& out);

  /// A pending whole-node write for the batched path; the image buffer is
  /// prepared in place like try_write_node's.
  struct NodeImage {
    uint64_t node_id = 0;
    ByteBuffer* image = nullptr;
  };
  /// A sub-extent read for the batched path (node-relative offset).
  struct NodeSpan {
    uint64_t node_id = 0;
    uint64_t offset = 0;
    uint64_t length = 0;
  };

  /// Vectored reads: all node extents are submitted as ONE device batch,
  /// so the clock advances to the slowest completion instead of the sum.
  /// out is resized to ids.size(), each element to node_bytes. Failed
  /// requests alone are re-batched under the IoContext's retry policy; on
  /// give-up the first failure is returned and the corresponding out slots
  /// are unspecified.
  Status try_read_nodes(std::span<const uint64_t> ids,
                        std::vector<ByteBuffer>& out);

  /// Vectored whole-node writes (each image prepared in place, as for
  /// try_write_node), one device batch; failed requests alone are
  /// re-batched under the retry policy, reusing the prepared bytes. On
  /// give-up some extents may hold torn data — the caller must keep the
  /// in-memory images authoritative (dirty) until a later write
  /// succeeds. When `written` is non-null it is resized to writes.size()
  /// and (*written)[i] reports whether write i durably landed (all true on
  /// an OK return).
  Status try_write_nodes(std::span<const NodeImage> writes,
                         std::vector<bool>* written = nullptr);

  /// Vectored timing-only sub-extent reads, one device batch.
  Status try_touch_read_batch(std::span<const NodeSpan> spans);

  /// The borrowed context every IO goes through (and is retried by).
  sim::IoContext& io() const { return *io_; }
  sim::Device& device() { return *dev_; }

  const NodeStoreStats& stats() const { return stats_; }
  void clear_stats() { stats_.clear(); }

  /// Export scalar/vectored IO-mix counters under `prefix`
  /// (e.g. "btree.store.").
  void export_metrics(stats::MetricsRegistry& reg,
                      std::string_view prefix) const;

 private:
  /// Turn a node image into the bytes its extent stores, in place: CHECK
  /// that it fits, zero its tail out to node_bytes (explicit zeros: the
  /// buffer may hold a longer earlier image), and under a codec replace it
  /// with its frame, or keep it raw when the frame would not fit.
  void prepare_write(ByteBuffer& image);

  /// Stored (device) length of node_id's image. 0 = never written through
  /// this store (read raw, full extent); node_bytes_ = stored raw
  /// unframed (incompressible); anything smaller is a codec frame.
  uint32_t stored_len(uint64_t node_id) const {
    return node_id < stored_len_.size() ? stored_len_[node_id] : 0;
  }
  void set_stored_len(uint64_t node_id, uint64_t len);
  /// True when node_id's on-device image is a codec frame.
  bool compressed_node(uint64_t node_id) const {
    const uint32_t sl = stored_len(node_id);
    return codec_ != nullptr && sl != 0 && sl != node_bytes_;
  }
  /// Map a logical [offset, length) within the node to the physical IO
  /// charged against its stored image (identity on uncompressed nodes).
  struct PhysSpan {
    uint64_t offset;
    uint64_t length;
  };
  PhysSpan physical_span(uint64_t node_id, uint64_t offset,
                         uint64_t length) const;
  /// Decode node_id's stored frame, read into dec_scratch_, into `out`.
  /// Non-OK (kCorruption) when the frame fails to decode.
  Status decode_frame(uint64_t node_id, ByteBuffer& out);
  /// Fetch node_id's payload into `out` (decoding compressed frames).
  /// Non-OK only when a frame fails to decode (kCorruption).
  Status fetch_payload(uint64_t node_id, ByteBuffer& out);

  sim::Device* dev_;
  sim::IoContext* io_;
  uint64_t node_bytes_;
  ExtentAllocator alloc_;
  std::unique_ptr<BlockCodec> codec_;  // nullptr = identity (no-op path)
  std::vector<uint32_t> stored_len_;   // per-node stored image length
  // Reused per-store scratch (no per-IO vector allocations on hot paths).
  std::vector<uint8_t> enc_scratch_;  // codec frame staging
  std::vector<uint8_t> dec_scratch_;  // stored-image staging for decode
  std::vector<uint8_t> decoded_;      // codec decode output
  std::vector<sim::IoRequest> reqs_scratch_;
  NodeStoreStats stats_;
};

}  // namespace damkit::blockdev
