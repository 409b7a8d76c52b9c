// Wall-clock CPU tier (ROADMAP item 5): host-time microsections over the
// node layer plus an end-to-end ops/sec section per engine. Every other
// bench gates *simulated* time; this one gates the constant factors the
// simulator cannot see — exactly the gap Didona et al. measure between
// modeled and observed tree performance on fast devices (PAPERS.md).
//
// Sections
//   cpu.search.*    interior-node search: legacy vector<string> binary
//                   search vs branchless search on the slotted image.
//   cpu.insert.*    leaf insert into a slotted page vs legacy vectors.
//   cpu.roundtrip.* serialize + deserialize of a full leaf: legacy
//                   per-entry parse/alloc vs memcpy + one header walk.
//   cpu.e2e.*       WorkloadRunner ops/sec per engine on a small-cache
//                   config (heavy node (de)serialization traffic).
//   cpu.micro.*     host cost of the core primitives (rng, Zipfian draw,
//                   HDD/SSD timing-model submit, bloom probe, vEB layout
//                   build, 50-row scan of a cached Bε-tree with buffered
//                   messages, read digest over a 50-row scan result) in ns
//                   per op, min of N repetitions. Reported, not gated: the
//                   `.ns_per_op` suffix is outside the wall-clock gate's
//                   suffixes.
//
// The e2e gauges are medians of N repetitions on steady_clock. The legacy
// reference implementations live in this file on purpose: the speedup
// gates are same-binary, same-machine ratios, so they hold anywhere,
// unlike absolute nanoseconds. The e2e section is additionally compared
// against the pre-refactor ops/sec captured in
// bench/baselines/BENCH_cpu_baseline.json by check_bench_regression.py's
// wall-clock mode (hard locally, advisory in CI: DAMKIT_CPU_GATE).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "betree/betree.h"
#include "harness/workload_runner.h"
#include "kv/engine.h"
#include "kv/op_apply.h"
#include "kv/slice.h"
#include "node/slotted_page.h"
#include "pdam_tree/veb_layout.h"
#include "sim/hdd.h"
#include "sim/profiles.h"
#include "sim/ssd.h"
#include "stats/metrics.h"
#include "util/bloom.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/table.h"

namespace damkit {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ns(Clock::time_point t0, Clock::time_point t1) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

/// Median wall-clock nanoseconds of `reps` runs of `fn`.
template <typename Fn>
double median_wall_ns(int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    samples.push_back(elapsed_ns(t0, t1));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Min wall-clock nanoseconds of `reps` runs — the noise-robust estimator
/// for pure-CPU microsections (interference is strictly additive).
template <typename Fn>
double min_wall_ns(int reps, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    const double ns = elapsed_ns(t0, t1);
    if (r == 0 || ns < best) best = ns;
  }
  return best;
}

// Defeat dead-code elimination without perturbing the measured loop.
volatile uint64_t g_sink = 0;

// ---------------------------------------------------------------------------
// Legacy reference node: the pre-refactor in-memory layout (one owned
// std::string per key/value, parsed entry-by-entry), kept verbatim here so
// the micro sections measure slotted-vs-legacy in the same binary.
// ---------------------------------------------------------------------------

struct LegacyLeaf {
  std::vector<std::string> keys;
  std::vector<std::string> values;
};

/// Pre-refactor deserialize: per-entry header decode + two heap strings.
LegacyLeaf legacy_parse(const std::vector<uint8_t>& image, uint32_t count) {
  LegacyLeaf node;
  node.keys.reserve(count);
  node.values.reserve(count);
  const uint8_t* p = image.data();
  for (uint32_t i = 0; i < count; ++i) {
    uint16_t klen;
    uint32_t vlen;
    std::memcpy(&klen, p, sizeof klen);
    std::memcpy(&vlen, p + 2, sizeof vlen);
    p += 6;
    node.keys.emplace_back(reinterpret_cast<const char*>(p), klen);
    p += klen;
    node.values.emplace_back(reinterpret_cast<const char*>(p), vlen);
    p += vlen;
  }
  return node;
}

/// Pre-refactor serialize: re-encode every entry into a fresh buffer.
void legacy_serialize(const LegacyLeaf& node, std::vector<uint8_t>* out) {
  out->clear();
  for (size_t i = 0; i < node.keys.size(); ++i) {
    const uint16_t klen = static_cast<uint16_t>(node.keys[i].size());
    const uint32_t vlen = static_cast<uint32_t>(node.values[i].size());
    const size_t at = out->size();
    out->resize(at + 6 + klen + vlen);
    std::memcpy(out->data() + at, &klen, sizeof klen);
    std::memcpy(out->data() + at + 2, &vlen, sizeof vlen);
    std::memcpy(out->data() + at + 6, node.keys[i].data(), klen);
    std::memcpy(out->data() + at + 6 + klen, node.values[i].data(), vlen);
  }
}

/// The pre-refactor kv::compare, verbatim: out-of-line (it lived in
/// slice.cpp) and memcmp-based. The legacy reference must pay exactly the
/// comparison cost the old binary paid.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((noinline))
#endif
int legacy_compare(std::string_view a, std::string_view b) {
  const size_t n = std::min(a.size(), b.size());
  const int c = n == 0 ? 0 : std::memcmp(a.data(), b.data(), n);
  if (c != 0) return c;
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

size_t legacy_lower_bound(const std::vector<std::string>& keys,
                          std::string_view key) {
  return static_cast<size_t>(
      std::lower_bound(keys.begin(), keys.end(), key,
                       [](const std::string& a, std::string_view b) {
                         return legacy_compare(a, b) < 0;
                       }) -
      keys.begin());
}

/// A leaf image with `count` entries in the on-disk record format, plus
/// the probe keys the search sections use.
struct LeafFixture {
  std::vector<uint8_t> image;
  uint32_t count = 0;
  std::vector<std::string> probes;
};

LeafFixture make_leaf_fixture(uint32_t count, size_t key_bytes,
                              size_t value_bytes, uint64_t seed) {
  LeafFixture fx;
  fx.count = count;
  Rng rng(seed);
  for (uint32_t i = 0; i < count; ++i) {
    // Spread ids so probe misses land between entries.
    const std::string key = kv::encode_key(i * 3 + 1, key_bytes);
    const std::string value = kv::make_value(i, value_bytes);
    const uint16_t klen = static_cast<uint16_t>(key.size());
    const uint32_t vlen = static_cast<uint32_t>(value.size());
    const size_t at = fx.image.size();
    fx.image.resize(at + 6 + klen + vlen);
    std::memcpy(fx.image.data() + at, &klen, sizeof klen);
    std::memcpy(fx.image.data() + at + 2, &vlen, sizeof vlen);
    std::memcpy(fx.image.data() + at + 6, key.data(), klen);
    std::memcpy(fx.image.data() + at + 6 + klen, value.data(), vlen);
  }
  for (int i = 0; i < 4096; ++i) {
    fx.probes.push_back(
        kv::encode_key(rng.uniform(static_cast<uint64_t>(count) * 3 + 2),
                       key_bytes));
  }
  return fx;
}

node::SlottedPage slotted_from_fixture(const LeafFixture& fx) {
  node::SlottedPage page;
  page.build_from_image(fx.image.data(), fx.image.size(), fx.count,
                        /*header_bytes=*/6, [](const uint8_t* p) {
                          uint16_t klen;
                          uint32_t vlen;
                          std::memcpy(&klen, p, sizeof klen);
                          std::memcpy(&vlen, p + 2, sizeof vlen);
                          return size_t{6} + klen + vlen;
                        });
  return page;
}

std::string_view slotted_key(const node::SlottedPage& page, size_t i) {
  const std::string_view rec = page.record(i);
  uint16_t klen;
  std::memcpy(&klen, rec.data(), sizeof klen);
  return rec.substr(6, klen);
}

// ---------------------------------------------------------------------------
// cpu.search — interior-node search, legacy vs slotted.
// ---------------------------------------------------------------------------

void section_search(const bench::BenchArgs& args, stats::MetricsRegistry* reg) {
  // Interior-node search the way a tree descent sees it: a cache-resident
  // *set* of interior nodes probed in random order. The legacy layout pays
  // two cache lines per comparison (string object + heap chars) over a 2x
  // footprint; the slotted page keeps each node's pivots contiguous and
  // reads the key straight out of the slot (record length implies key
  // length — no header decode on the compare path).
  //
  // The fixture size is the same in quick and full mode on purpose: this
  // is the gated ratio, and the fixture models the *cached* interior
  // level (the scenario node caching exists for). Full mode buys a
  // tighter estimator — more iterations and reps — not a different
  // working set, whose cache residency would change what is measured.
  const uint32_t nodes = 48;
  const uint32_t pivots = 512;  // a 16KiB node's worth of 16-byte pivots
  std::vector<std::vector<std::string>> legacy(nodes);
  std::vector<node::SlottedPage> slotted(nodes);
  for (uint32_t n = 0; n < nodes; ++n) {
    std::vector<uint8_t> image;
    for (uint32_t i = 0; i < pivots; ++i) {
      const std::string key =
          kv::encode_key((uint64_t{n} * pivots + i) * 3 + 1, 16);
      legacy[n].push_back(key);
      const uint16_t klen = static_cast<uint16_t>(key.size());
      const size_t at = image.size();
      image.resize(at + 2 + key.size());
      std::memcpy(image.data() + at, &klen, sizeof klen);
      std::memcpy(image.data() + at + 2, key.data(), key.size());
    }
    slotted[n].build_from_image(image.data(), image.size(), pivots,
                                /*header_bytes=*/2, [](const uint8_t* p) {
                                  uint16_t klen;
                                  std::memcpy(&klen, p, sizeof klen);
                                  return size_t{2} + klen;
                                });
  }
  const auto pivot_key = [](std::string_view rec) { return rec.substr(2); };

  Rng rng(args.seed);
  struct Probe {
    uint32_t node;
    std::string key;
  };
  std::vector<Probe> probes;
  for (int i = 0; i < 8192; ++i) {
    probes.push_back(
        {static_cast<uint32_t>(rng.uniform(nodes)),
         kv::encode_key(rng.uniform(uint64_t{nodes} * pivots * 3 + 2), 16)});
  }

  // More reps than the other microsections: this is the gated ratio, and
  // min-of-reps tightens monotonically with rep count.
  const int iters = args.quick ? 100 : 300;
  const int reps = args.quick ? 11 : 15;

  const double legacy_ns = min_wall_ns(reps, [&] {
    uint64_t acc = 0;
    for (int it = 0; it < iters; ++it) {
      for (const Probe& probe : probes) {
        acc += legacy_lower_bound(legacy[probe.node], probe.key);
      }
    }
    g_sink += acc;
  });
  const double slotted_ns = min_wall_ns(reps, [&] {
    uint64_t acc = 0;
    for (int it = 0; it < iters; ++it) {
      for (const Probe& probe : probes) {
        acc += slotted[probe.node].lower_bound(probe.key, pivot_key);
      }
    }
    g_sink += acc;
  });

  const double speedup = legacy_ns / std::max(slotted_ns, 1.0);
  reg->set("cpu.search.legacy_wall_ns", legacy_ns);
  reg->set("cpu.search.slotted_wall_ns", slotted_ns);
  reg->set("cpu.search.speedup_ratio", speedup);
  std::printf("cpu.search: legacy %.0f ns, slotted %.0f ns, speedup %.2fx\n",
              legacy_ns, slotted_ns, speedup);
}

// ---------------------------------------------------------------------------
// cpu.insert — leaf insert at random positions, legacy vs slotted.
// ---------------------------------------------------------------------------

void section_insert(const bench::BenchArgs& args, stats::MetricsRegistry* reg) {
  const uint32_t count = 256;
  const LeafFixture fx = make_leaf_fixture(count, 16, 100, args.seed + 1);
  const int iters = args.quick ? 50 : 200;
  const int reps = args.quick ? 5 : 9;
  const std::string key = kv::encode_key(1, 16);
  const std::string value = kv::make_value(99, 100);

  const double legacy_ns = min_wall_ns(reps, [&] {
    for (int it = 0; it < iters; ++it) {
      LegacyLeaf node = legacy_parse(fx.image, fx.count);
      Rng rng(args.seed + static_cast<uint64_t>(it));
      for (int i = 0; i < 64; ++i) {
        const size_t pos = rng.uniform(node.keys.size() + 1);
        node.keys.insert(node.keys.begin() + static_cast<long>(pos), key);
        node.values.insert(node.values.begin() + static_cast<long>(pos),
                           value);
      }
      g_sink += node.keys.size();
    }
  });
  const double slotted_ns = min_wall_ns(reps, [&] {
    for (int it = 0; it < iters; ++it) {
      node::SlottedPage page = slotted_from_fixture(fx);
      Rng rng(args.seed + static_cast<uint64_t>(it));
      for (int i = 0; i < 64; ++i) {
        const size_t pos = rng.uniform(page.count() + 1);
        uint8_t* rec = page.insert_alloc(pos, 6 + key.size() + value.size());
        const uint16_t klen = static_cast<uint16_t>(key.size());
        const uint32_t vlen = static_cast<uint32_t>(value.size());
        std::memcpy(rec, &klen, sizeof klen);
        std::memcpy(rec + 2, &vlen, sizeof vlen);
        std::memcpy(rec + 6, key.data(), key.size());
        std::memcpy(rec + 6 + key.size(), value.data(), value.size());
      }
      g_sink += page.count();
    }
  });

  const double speedup = legacy_ns / std::max(slotted_ns, 1.0);
  reg->set("cpu.insert.legacy_wall_ns", legacy_ns);
  reg->set("cpu.insert.slotted_wall_ns", slotted_ns);
  reg->set("cpu.insert.speedup_ratio", speedup);
  std::printf("cpu.insert: legacy %.0f ns, slotted %.0f ns, speedup %.2fx\n",
              legacy_ns, slotted_ns, speedup);
}

// ---------------------------------------------------------------------------
// cpu.roundtrip — full-leaf serialize + deserialize, legacy vs slotted.
// ---------------------------------------------------------------------------

void section_roundtrip(const bench::BenchArgs& args,
                       stats::MetricsRegistry* reg) {
  const uint32_t count = 256;
  const LeafFixture fx = make_leaf_fixture(count, 16, 100, args.seed + 2);
  const int iters = args.quick ? 200 : 1000;
  const int reps = args.quick ? 5 : 9;

  const double legacy_ns = min_wall_ns(reps, [&] {
    std::vector<uint8_t> out;
    for (int it = 0; it < iters; ++it) {
      const LegacyLeaf node = legacy_parse(fx.image, fx.count);
      legacy_serialize(node, &out);
      g_sink += out.size();
    }
  });
  const double slotted_ns = min_wall_ns(reps, [&] {
    std::vector<uint8_t> out;
    for (int it = 0; it < iters; ++it) {
      const node::SlottedPage page = slotted_from_fixture(fx);
      out.clear();
      page.write_to(&out);
      g_sink += out.size();
    }
  });

  const double speedup = legacy_ns / std::max(slotted_ns, 1.0);
  reg->set("cpu.roundtrip.legacy_wall_ns", legacy_ns);
  reg->set("cpu.roundtrip.slotted_wall_ns", slotted_ns);
  reg->set("cpu.roundtrip.speedup_ratio", speedup);
  std::printf(
      "cpu.roundtrip: legacy %.0f ns, slotted %.0f ns, speedup %.2fx\n",
      legacy_ns, slotted_ns, speedup);
}

// ---------------------------------------------------------------------------
// cpu.e2e — WorkloadRunner ops/sec per engine.
// ---------------------------------------------------------------------------

kv::EngineConfig e2e_config() {
  kv::EngineConfig cfg;
  cfg.btree.node_bytes = 16 * kKiB;
  cfg.btree.cache_bytes = 256 * kKiB;
  cfg.betree.node_bytes = 32 * kKiB;
  cfg.betree.cache_bytes = 256 * kKiB;
  cfg.lsm.memtable_bytes = 64 * kKiB;
  cfg.lsm.sstable_target_bytes = 128 * kKiB;
  cfg.pdam.buffer_bytes = 64 * kKiB;
  return cfg;
}

kv::WorkloadSpec e2e_spec(uint64_t seed) {
  kv::WorkloadSpec spec;
  spec.key_space = 20000;
  spec.value_bytes = 100;
  spec.get_weight = 0.35;
  spec.put_weight = 0.35;
  spec.delete_weight = 0.1;
  spec.scan_weight = 0.05;
  spec.upsert_weight = 0.15;
  spec.scan_length = 40;
  spec.seed = seed;
  return spec;
}

/// Pre-refactor ops/sec (median of 5, Release, this repo's CI-class host)
/// captured at commit 9d91982, immediately before the slotted-layout port.
/// The in-binary gate uses these only when DAMKIT_CPU_GATE=hard; the
/// checked-in BENCH_cpu_baseline.json is the portable regression surface.
struct E2eBaseline {
  const char* engine;
  double ops_per_sec;
};
constexpr E2eBaseline kPreRefactorOpsPerSec[] = {
    {"btree", 85638.0},  {"betree", 69910.0}, {"opt-betree", 87529.0},
    {"lsm", 78006.0},    {"pdam", 322001.0},
};

void section_e2e(const bench::BenchArgs& args, stats::MetricsRegistry* reg,
                 bool* any_e2e_gate_pass) {
  const uint64_t ops = args.quick ? 8000 : 40000;
  const uint64_t load = args.quick ? 4000 : 10000;
  const int reps = args.quick ? 3 : 5;
  kv::WorkloadSpec spec = e2e_spec(args.seed);
  if (args.workload_spec.has_value()) {
    // --workload swaps in a named scenario (YCSB A-F / shift / olap) at
    // the e2e section's scale. The pre-refactor baselines were captured
    // on the default mix, so the uplift gate is skipped for presets.
    spec = *args.workload_spec;
    spec.key_space = 20000;
    spec.value_bytes = 100;
    spec.seed = args.seed;
    std::printf("cpu.e2e: workload preset '%s'\n", args.workload.c_str());
  }

  for (const kv::EngineKind kind : kv::kAllEngineKinds) {
    uint64_t digest = 0;
    const double wall_ns = median_wall_ns(reps, [&] {
      sim::SsdDevice dev(sim::testbed_ssd_profile());
      sim::IoContext io(dev);
      kv::EngineConfig cfg = e2e_config();
      cfg.codec = args.codec;
      const auto dict = kv::make_engine(kind, dev, io, cfg);
      harness::WorkloadRunner runner(*dict, io);
      runner.bulk_load(load, spec);
      const harness::WorkloadRunResult result = runner.run(spec, ops);
      digest = result.digest;
    });
    const double ops_per_sec =
        static_cast<double>(ops) / (wall_ns / 1e9);
    const std::string name(kv::engine_kind_name(kind));
    reg->set("cpu.e2e." + name + ".wall_ns", wall_ns);
    reg->set("cpu.e2e." + name + ".ops_per_sec", ops_per_sec);
    std::printf("cpu.e2e.%s: %.0f ops/sec (median wall %.1f ms, digest %llu)\n",
                name.c_str(), ops_per_sec, wall_ns / 1e6,
                static_cast<unsigned long long>(digest));
    if (!args.workload_spec.has_value()) {
      for (const E2eBaseline& base : kPreRefactorOpsPerSec) {
        if (name == base.engine && base.ops_per_sec > 0.0 &&
            ops_per_sec >= 1.2 * base.ops_per_sec) {
          *any_e2e_gate_pass = true;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// cpu.micro — host ns per op of the core primitives (reported, ungated).
// ---------------------------------------------------------------------------

void section_micro(const bench::BenchArgs& args, stats::MetricsRegistry* reg) {
  const int reps = args.quick ? 5 : 9;
  const uint64_t draws = args.quick ? 200'000 : 1'000'000;
  const uint64_t ios = draws / 10;
  // Min over reps of one timed loop of `ops` ops, divided out.
  const auto report = [&](const std::string& name, uint64_t ops,
                          auto&& loop) {
    const double ns = min_wall_ns(reps, loop) / static_cast<double>(ops);
    reg->set("cpu.micro." + name + ".ns_per_op", ns);
    std::printf("cpu.micro.%s: %.1f ns/op\n", name.c_str(), ns);
  };

  Rng rng(args.seed + 3);
  report("rng_next", draws, [&] {
    uint64_t acc = 0;
    for (uint64_t i = 0; i < draws; ++i) acc += rng.next();
    g_sink += acc;
  });
  Zipfian zipf(1'000'000, 0.99);
  report("zipf_sample", draws, [&] {
    uint64_t acc = 0;
    for (uint64_t i = 0; i < draws; ++i) acc += zipf.sample(rng);
    g_sink += acc;
  });

  // Random reads issued back to back; the device clock carries across
  // reps (submissions must not go back in time).
  sim::HddDevice hdd(sim::testbed_hdd_profile());
  sim::SimTime hdd_now = 0;
  report("hdd_submit", ios, [&] {
    for (uint64_t i = 0; i < ios; ++i) {
      const uint64_t off = rng.uniform(hdd.capacity_bytes() / 4096) * 4096;
      hdd_now = hdd.submit({sim::IoKind::kRead, off, 4096}, hdd_now).finish;
    }
  });
  sim::SsdDevice ssd(sim::testbed_ssd_profile());
  sim::SimTime ssd_now = 0;
  const uint64_t ssd_io = 64 * kKiB;
  report("ssd_submit", ios, [&] {
    for (uint64_t i = 0; i < ios; ++i) {
      const uint64_t off = rng.uniform(ssd.capacity_bytes() / ssd_io) * ssd_io;
      ssd_now = ssd.submit({sim::IoKind::kRead, off, ssd_io}, ssd_now).finish;
    }
  });

  BloomFilter bloom(100'000, 10.0);
  for (uint64_t i = 0; i < 100'000; ++i) bloom.add(kv::encode_key(i));
  std::string probe;
  report("bloom_may_contain", draws, [&] {
    uint64_t hits = 0;
    for (uint64_t i = 0; i < draws; ++i) {
      kv::encode_key_to(rng.next(), 16, &probe);
      hits += bloom.may_contain(probe) ? 1 : 0;
    }
    g_sink += hits;
  });

  // One op = one full layout build of a tree of the given height.
  for (const int height : {10, 16, 20}) {
    const uint64_t builds = uint64_t{1} << (20 - height);
    report(strfmt("veb_layout_h%d", height), builds, [&] {
      for (uint64_t i = 0; i < builds; ++i) {
        g_sink += pdam_tree::veb_positions(height).size();
      }
    });
  }

  // One op = one 50-row scan of a fully cached Bε-tree (64 KiB nodes)
  // whose buffers hold pending puts: the host cost of merging buffered
  // messages into leaf entries, with no device IO.
  sim::SsdDevice scan_dev(sim::testbed_ssd_profile());
  sim::IoContext scan_io(scan_dev);
  betree::BeTreeConfig tc;
  tc.node_bytes = 64 * kKiB;
  tc.cache_bytes = 64 * kMiB;
  betree::BeTree tree(scan_dev, scan_io, tc);
  const uint64_t scan_keys = 100'000;
  tree.bulk_load(scan_keys, [](uint64_t i) {
    return std::make_pair(kv::encode_key(i, 16), kv::make_value(i, 100));
  });
  for (uint64_t i = 0; i < scan_keys / 10; ++i) {
    const uint64_t id = rng.uniform(scan_keys);
    tree.put(kv::encode_key(id, 16), kv::make_value(id + 1, 100));
  }
  (void)tree.range_scan("", scan_keys);  // load every node into the cache
  const uint64_t scans = args.quick ? 2'000 : 10'000;
  std::vector<std::string> scan_from(scans);
  for (std::string& lo : scan_from) {
    lo = kv::encode_key(rng.uniform(scan_keys), 16);
  }
  report("betree_scan50", scans, [&] {
    uint64_t rows = 0;
    for (const std::string& lo : scan_from) {
      rows += tree.range_scan(lo, 50).size();
    }
    g_sink = rows;
  });

  // One op = the read digest over one 50-row scan result of 16 B keys and
  // 100 B values, the shape perfbench's scan-cached workload hashes.
  std::vector<std::pair<std::string, std::string>> scan_rows;
  for (uint64_t i = 0; i < 50; ++i) {
    scan_rows.emplace_back(kv::encode_key(i, 16), kv::make_value(i, 100));
  }
  const uint64_t digests = args.quick ? 20'000 : 100'000;
  report("digest_scan50", digests, [&] {
    uint64_t h = kv::kFnvOffsetBasis;
    for (uint64_t i = 0; i < digests; ++i) h = kv::digest_rows(h, scan_rows);
    g_sink = h;
  });
}

}  // namespace
}  // namespace damkit

int main(int argc, char** argv) {
  using namespace damkit;
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::banner("wall-clock CPU tier (slotted node layout)",
                "host-overhead refinement; Didona et al., PAPERS.md");

  stats::MetricsRegistry reg;
  section_search(args, &reg);
  section_insert(args, &reg);
  section_roundtrip(args, &reg);
  bool any_e2e_gate_pass = false;
  section_e2e(args, &reg, &any_e2e_gate_pass);
  section_micro(args, &reg);

  if (!args.metrics_json.empty()) {
    if (!bench::write_metrics_json(reg, args.metrics_json)) return 1;
  }

#ifdef NDEBUG
  // Same-binary ratio gates: machine-independent, hard in Release.
  const double search_speedup = reg.gauge("cpu.search.speedup_ratio");
  if (search_speedup < 1.5) {
    std::fprintf(stderr,
                 "FAIL: interior-node search speedup %.2fx < 1.5x gate\n",
                 search_speedup);
    return 1;
  }
  const double roundtrip_speedup = reg.gauge("cpu.roundtrip.speedup_ratio");
  if (roundtrip_speedup < 1.2) {
    std::fprintf(stderr, "FAIL: roundtrip speedup %.2fx < 1.2x gate\n",
                 roundtrip_speedup);
    return 1;
  }
  // Absolute e2e uplift vs the pre-refactor capture: same-machine numbers,
  // so only hard when explicitly requested (CI runs advisory).
  const char* gate_mode = std::getenv("DAMKIT_CPU_GATE");
  if (gate_mode != nullptr && std::strcmp(gate_mode, "hard") == 0 &&
      args.workload.empty() && !any_e2e_gate_pass) {
    std::fprintf(stderr,
                 "FAIL: no engine reached 1.2x pre-refactor ops/sec\n");
    return 1;
  }
#endif
  std::printf("bench_cpu: all wall-clock gates passed\n");
  return 0;
}
