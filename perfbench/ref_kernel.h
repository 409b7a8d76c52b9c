// The reference kernel: a fixed amount of host work, run between short
// segments of every timed phase. It is self-contained (no damkit calls), so
// no change to the library can change its speed; only the host can. The
// ratio of its measured time to kNominalMs says how fast the host is
// running at that moment, and timed-phase throughput is scaled by it.
//
// Four parts of roughly equal time, each standing for one kind of host
// work the workloads do: dependent loads that miss the private caches
// (node and page fetch), building and freeing an ordered map of
// string pairs (allocation and pointer-linked containers), sorting
// (branchy compares), and 16 KiB block copies (page images, results).
// Of the single parts and mixes tried, this mix tracked the drift of all
// three workloads best; see README.md, "Noise study".
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "probe.h"

namespace perfbench {

class RefKernel {
 public:
  /// Time of one run() on the host the benchmark was tuned on; only the
  /// ratio against it matters, so any fixed value is correct.
  static constexpr double kNominalMs = 60.0;

  RefKernel()
      : ring_(kRingWords), src_(kCopySourceBytes), dst_(kBlockBytes),
        sort_(kSortWords) {
    // One random cycle through the ring (Sattolo's algorithm), so the
    // chase visits every word before repeating and no prefetcher helps.
    for (uint32_t i = 0; i < kRingWords; ++i) ring_[i] = i;
    uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (uint32_t i = kRingWords - 1; i > 0; --i) {
      x = xorshift(x);
      std::swap(ring_[i], ring_[x % i]);
    }
    for (size_t i = 0; i < src_.size(); ++i) {
      src_[i] = static_cast<char>(i * 131 + 7);
    }
  }

  /// Run the fixed work once; returns its wall time in milliseconds.
  double run_ms() {
    const uint64_t t0 = now_ns();
    uint32_t at = static_cast<uint32_t>(sink_ % kRingWords);
    for (int i = 0; i < kChaseSteps; ++i) at = ring_[at];
    uint64_t h = at;

    {
      std::map<std::string, std::string> m;
      std::string key(16, 'k');
      for (uint32_t i = 0; i < kMapInserts; ++i) {
        const uint32_t k = static_cast<uint32_t>(h) ^ (i * 2654435761u);
        std::memcpy(key.data(), &k, sizeof(k));
        m.emplace(key, std::string(100, static_cast<char>('a' + i % 26)));
      }
      h += m.size() + static_cast<uint8_t>(m.begin()->second[0]);
    }

    for (int pass = 0; pass < kSortPasses; ++pass) {
      uint64_t y = h | 1;
      for (uint64_t& v : sort_) v = y = xorshift(y);
      std::sort(sort_.begin(), sort_.end());
      h += sort_[sort_.size() / 2];
    }

    for (int c = 0; c < kCopies; ++c) {
      const size_t off = ((h >> 3) + static_cast<size_t>(c) * 40961) %
                         (src_.size() - kBlockBytes);
      std::memcpy(dst_.data(), src_.data() + off, kBlockBytes);
      h ^= static_cast<uint8_t>(dst_[static_cast<size_t>(c) % kBlockBytes]);
    }
    sink_ += h;
    return static_cast<double>(now_ns() - t0) / 1e6;
  }

  /// Folds the work into a value the caller prints, so it is never dead.
  uint64_t sink() const { return sink_; }

 private:
  static uint64_t xorshift(uint64_t x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }

  static constexpr uint32_t kRingWords = 4u << 20;  // 16 MiB of uint32
  static constexpr size_t kCopySourceBytes = 8u << 20;
  static constexpr size_t kBlockBytes = 16 * 1024;
  static constexpr size_t kSortWords = 64 * 1024;
  static constexpr int kChaseSteps = 125'000;
  static constexpr uint32_t kMapInserts = 36'000;
  static constexpr int kSortPasses = 4;
  static constexpr int kCopies = 19'000;

  std::vector<uint32_t> ring_;
  std::vector<char> src_;
  std::vector<char> dst_;
  std::vector<uint64_t> sort_;
  uint64_t sink_ = 0;
};

}  // namespace perfbench
