// The reference model: an in-memory ordered map that replays a run's op
// streams after timing and reproduces the Probe's read-result digest.
// It shares nothing with the engines but the op inputs (OpGenerator draws
// and the key/value encodings); ordering, overwrite, delete, counter and
// scan semantics are the Dictionary contract, implemented here directly.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "kv/slice.h"
#include "kv/workload.h"
#include "probe.h"

namespace perfbench {

/// One generated op stream: the first `ops` ops of `spec`, applied with
/// global indices 0..ops-1 (put values are make_value(key_id + index)).
struct Stream {
  kv::WorkloadSpec spec;
  uint64_t ops = 0;
};

class Model {
 public:
  /// The bulk-loaded state: bulk_item(i) for i in [0, keys).
  Model(const kv::WorkloadSpec& spec, uint64_t keys) {
    for (uint64_t i = 0; i < keys; ++i) {
      kv::BulkItem item = kv::bulk_item(i, spec);
      data_.emplace_hint(data_.end(), std::move(item.key),
                         std::move(item.value));
    }
  }

  void apply(const Stream& s) {
    kv::OpGenerator gen(s.spec);
    std::string key;
    std::string value;
    for (uint64_t i = 0; i < s.ops; ++i) {
      const kv::Op op = gen.next();
      kv::encode_key_to(op.key_id, s.spec.key_bytes, &key);
      switch (op.type) {
        case kv::OpType::kPut:
          kv::make_value_to(op.key_id + i, s.spec.value_bytes, &value);
          data_[key] = value;
          break;
        case kv::OpType::kDelete:
          data_.erase(key);
          break;
        case kv::OpType::kUpsert:
          upsert(key, static_cast<int64_t>(op.key_id % 1000 + 1));
          break;
        case kv::OpType::kGet:
          get(key);
          break;
        case kv::OpType::kScan:
          scan(key, op.scan_length);
          break;
      }
    }
  }

  /// A full ascending scan, as the scan-cached warm-up issues it.
  void scan_all() { scan(std::string(), data_.size()); }

  uint64_t digest() const { return digest_; }
  uint64_t live_bytes() const {
    uint64_t b = 0;
    for (const auto& [k, v] : data_) b += k.size() + v.size();
    return b;
  }

 private:
  void get(const std::string& key) {
    digest_ = hash_bytes(hash_word(digest_, kGet), key);
    const auto it = data_.find(key);
    digest_ = it != data_.end() ? hash_bytes(digest_, it->second)
                                : hash_word(digest_, ~0ULL);
  }

  void scan(const std::string& lo, uint64_t limit) {
    digest_ = hash_bytes(hash_word(digest_, kScan), lo);
    uint64_t n = 0;
    for (auto it = data_.lower_bound(lo); it != data_.end() && n < limit;
         ++it) {
      ++n;
    }
    digest_ = hash_word(digest_, n);
    auto it = data_.lower_bound(lo);
    for (uint64_t i = 0; i < n; ++i, ++it) {
      digest_ = hash_bytes(hash_bytes(digest_, it->first), it->second);
    }
  }

  /// 8-byte little-endian counter; any other stored value counts as zero.
  void upsert(const std::string& key, int64_t delta) {
    uint64_t current = 0;
    const auto it = data_.find(key);
    if (it != data_.end() && it->second.size() == 8) {
      for (int b = 7; b >= 0; --b) {
        current = (current << 8) | static_cast<uint8_t>(it->second[b]);
      }
    }
    uint64_t next = current + static_cast<uint64_t>(delta);
    std::string enc(8, '\0');
    for (int b = 0; b < 8; ++b) {
      enc[b] = static_cast<char>(next & 0xff);
      next >>= 8;
    }
    data_[key] = std::move(enc);
  }

  std::map<std::string, std::string> data_;
  uint64_t digest_ = kDigestSeed;
};

}  // namespace perfbench
