// Pluggable block codecs for node / SSTable-block images.
//
// The affine model prices an IO at 1 + αx, so every byte a codec removes
// from a stored image saves α on the transfer term while the setup term
// is untouched — compression is a pure shrink of the *effective* α, which
// is exactly the kind of constant-factor refinement the paper argues
// changes design conclusions (optimal node sizes shift as α shrinks).
//
// A codec turns a raw image into a self-describing frame:
//
//   [uvarint raw_len][u8 mode][payload]
//
// mode 0 stores the payload verbatim (incompressible input costs at most
// the ~6-byte header); mode 1 stores an LZ77 token stream:
//
//   repeat until raw_len bytes are produced:
//     [uvarint lit_len][lit_len literal bytes]
//     [uvarint match_len][uvarint distance]     (omitted at end-of-frame)
//
// Matches may overlap their output (distance 1 replays the previous byte,
// which is how zero padding and repeated fragments collapse). The frame
// format is shared by every codec, so any codec can decode any frame —
// kinds differ only in how hard encode() searches for matches:
//
//   kPrefix — one candidate per position (the most recent occurrence of
//             the next 8 bytes), greedy extend. On sorted records this is
//             byte-level prefix truncation: each key's longest match is
//             its shared prefix with a recent neighbor. Cheap, weaker.
//   kLz     — hash chains, multiple candidates, 4-byte minimum match.
//             Stronger ratio at more encode CPU (host CPU, not simulated
//             time — the DAM has no CPU term).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "stats/metrics.h"

namespace damkit::blockdev {

/// kDefault is a factory-level sentinel, not a codec: kv::make_engine
/// resolves it via the DAMKIT_CODEC environment variable (falling back to
/// identity) so a CI leg can flip every factory-built engine's codec
/// without touching per-test configuration.
enum class CodecKind : uint8_t { kIdentity, kPrefix, kLz, kDefault };

/// "identity", "prefix", "lz" ("default" for the sentinel).
std::string_view codec_kind_name(CodecKind kind);
/// Inverse of codec_kind_name; nullopt on an unknown name.
std::optional<CodecKind> parse_codec_kind(std::string_view name);
/// Resolve kDefault through the DAMKIT_CODEC environment variable
/// (unset/unparsable → kIdentity); concrete kinds pass through.
CodecKind resolve_codec_kind(CodecKind kind);
/// The three concrete kinds, in declaration order (sweep support).
inline constexpr CodecKind kAllCodecKinds[] = {
    CodecKind::kIdentity, CodecKind::kPrefix, CodecKind::kLz};

// ---------------------------------------------------------------------------
// LEB128 varints — the frame and token framing above.
// ---------------------------------------------------------------------------

inline void put_uvarint(std::vector<uint8_t>& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<uint8_t>(v));
}

/// Decode a varint at `pos`, advancing it. False on truncation/overlong
/// input (more than 10 bytes) — torn frames must fail, not abort.
inline bool get_uvarint(std::span<const uint8_t> in, size_t& pos,
                        uint64_t* out) {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos >= in.size()) return false;
    const uint8_t byte = in[pos++];
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      return true;
    }
  }
  return false;
}

/// Cumulative encode/decode accounting. `ratio` and `bytes_saved` are the
/// derived gauges the affine analysis reads: saved bytes × the device's
/// expected transfer seconds/byte is the predicted sim-time reduction.
struct CodecStats {
  uint64_t encode_calls = 0;
  uint64_t decode_calls = 0;
  uint64_t raw_bytes = 0;      // bytes presented to encode()
  uint64_t encoded_bytes = 0;  // frame bytes encode() produced
  uint64_t raw_fallbacks = 0;  // frames stored verbatim (incompressible)

  /// encoded/raw (1.0 before any encode; < 1.0 when compressing).
  double ratio() const {
    return raw_bytes == 0
               ? 1.0
               : static_cast<double>(encoded_bytes) /
                     static_cast<double>(raw_bytes);
  }
  uint64_t bytes_saved() const {
    return encoded_bytes >= raw_bytes ? 0 : raw_bytes - encoded_bytes;
  }

  void clear() { *this = CodecStats{}; }

  /// Counters plus `ratio` / `bytes_saved` gauges under `prefix`
  /// (e.g. "btree.store.codec.").
  void export_metrics(stats::MetricsRegistry& reg,
                      std::string_view prefix) const;
};

/// A block codec. Thread-compatible like the stores that own it: stats
/// are mutated without synchronization, one instance per tree.
class BlockCodec {
 public:
  virtual ~BlockCodec();

  virtual CodecKind kind() const = 0;
  std::string_view name() const { return codec_kind_name(kind()); }

  /// Encode `raw` into a self-describing frame (out is replaced). Never
  /// fails: input the search cannot shrink is framed verbatim.
  void encode(std::span<const uint8_t> raw, std::vector<uint8_t>& out) const;

  /// Decode a frame back to the exact raw bytes (out is replaced). False
  /// when the frame is malformed or truncated (e.g. a torn write) — the
  /// caller surfaces kCorruption instead of aborting.
  bool decode(std::span<const uint8_t> frame, std::vector<uint8_t>& out) const;

  const CodecStats& stats() const { return stats_; }
  void clear_stats() { stats_.clear(); }

 protected:
  /// Append a token stream for `raw` to `out` (which already holds the
  /// frame header). Return false to decline (identity codec, or input the
  /// search predicts it cannot shrink) — encode() then emits a raw frame.
  virtual bool encode_tokens(std::span<const uint8_t> raw,
                             std::vector<uint8_t>& out) const = 0;

 private:
  mutable CodecStats stats_;
};

/// Frames verbatim (mode 0 always). The stores bypass codecs of kind
/// kIdentity entirely — this class exists so the factory is total and the
/// frame round-trip is testable for every kind.
class IdentityCodec final : public BlockCodec {
 public:
  CodecKind kind() const override { return CodecKind::kIdentity; }

 protected:
  bool encode_tokens(std::span<const uint8_t> raw,
                     std::vector<uint8_t>& out) const override;
};

/// Single-candidate greedy matcher (see file comment): byte-level prefix
/// truncation / delta encoding for images of sorted records.
class PrefixDeltaCodec final : public BlockCodec {
 public:
  CodecKind kind() const override { return CodecKind::kPrefix; }

 protected:
  bool encode_tokens(std::span<const uint8_t> raw,
                     std::vector<uint8_t>& out) const override;
};

/// Hash-chain LZ77 with a 4-byte minimum match — the stronger page codec.
class LzCodec final : public BlockCodec {
 public:
  CodecKind kind() const override { return CodecKind::kLz; }

 protected:
  bool encode_tokens(std::span<const uint8_t> raw,
                     std::vector<uint8_t>& out) const override;
};

/// Build a codec of `kind` (kDefault is resolved first). Never null.
std::unique_ptr<BlockCodec> make_codec(CodecKind kind);

}  // namespace damkit::blockdev
