// Wall-clock CPU tier: host time of the work the simulator does not price,
// the gap Didona et al. measure between modeled and observed tree
// performance on fast devices (PAPERS.md). Every other bench reports
// *simulated* time.
//
// Sections
//   cpu.e2e.*    WorkloadRunner ops/sec per engine on a small-cache config
//                (heavy node (de)serialization traffic), median of N
//                repetitions.
//   cpu.micro.*  host ns per op, min of N repetitions, of the node pages
//                every engine runs (PivotPage search, KvPage put, KvPage
//                parse + write_to), of a B-tree leaf's cache miss (device
//                copy, adopting parse, clean eviction), of an LSM
//                memtable's fill-and-clear cycle and of the core
//                primitives (rng, Zipfian
//                draw, HDD/SSD timing-model submit, bloom probe, vEB layout
//                build, 50-row scan of a cached Bε-tree with buffered
//                messages, read digest over a 50-row scan result).
//
// Nothing here gates, since wall clock varies across hosts.
// check_bench_regression.py --wallclock compares the e2e gauges with
// bench/baselines/BENCH_cpu_baseline.json, and the node tests
// (tests/node/) pin the page layout's work: key reads per search and heap
// allocations per parse.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "betree/betree.h"
#include "blockdev/codec.h"
#include "btree/btree_node.h"
#include "cache/node_cache.h"
#include "harness/workload_runner.h"
#include "kv/engine.h"
#include "kv/op_apply.h"
#include "kv/slice.h"
#include "lsm/memtable.h"
#include "node/sorted_page.h"
#include "pdam_tree/veb_layout.h"
#include "sim/hdd.h"
#include "sim/profiles.h"
#include "sim/ssd.h"
#include "stats/metrics.h"
#include "util/bloom.h"
#include "util/bytes.h"
#include "util/rng.h"
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

void section_e2e(const bench::BenchArgs& args, stats::MetricsRegistry* reg) {
  const uint64_t ops = args.quick ? 8000 : 40000;
  const uint64_t load = args.quick ? 4000 : 10000;
  const int reps = args.quick ? 3 : 5;
  kv::WorkloadSpec spec = e2e_spec(args.seed);
  if (args.workload_spec.has_value()) {
    // --workload swaps in a named scenario (YCSB A-F / shift / olap) at
    // the e2e section's scale.
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
    const double ops_per_sec = static_cast<double>(ops) / (wall_ns / 1e9);
    const std::string name(kv::engine_kind_name(kind));
    reg->set("cpu.e2e." + name + ".wall_ns", wall_ns);
    reg->set("cpu.e2e." + name + ".ops_per_sec", ops_per_sec);
    std::printf(
        "cpu.e2e.%s: %.0f ops/sec (median wall %.1f ms, digest %llu)\n",
        name.c_str(), ops_per_sec, wall_ns / 1e6,
        static_cast<unsigned long long>(digest));
  }
}

// ---------------------------------------------------------------------------
// cpu.micro — host ns per op of the node pages and the core primitives.
// ---------------------------------------------------------------------------

void section_micro(const bench::BenchArgs& args, stats::MetricsRegistry* reg) {
  const int reps = args.quick ? 5 : 9;
  const uint64_t draws = args.quick ? 200'000 : 1'000'000;
  const uint64_t ios = draws / 10;
  // Min over reps of one timed loop of `ops` ops, divided out.
  const auto report = [&](const std::string& name, uint64_t ops, auto&& loop) {
    const double ns = min_wall_ns(reps, loop) / static_cast<double>(ops);
    reg->set("cpu.micro." + name + ".ns_per_op", ns);
    std::printf("cpu.micro.%s: %.1f ns/op\n", name.c_str(), ns);
  };

  // The node pages (node/sorted_page.h). The fixtures are the same in
  // quick and full mode, so both measure the same cache residency; full
  // mode only runs more iterations.
  //
  // One op = one PivotPage::lower_bound: a random probe into one of 48
  // cached interior pages of 512 16-byte pivots (a 16 KiB node's worth).
  constexpr uint64_t kPages = 48;
  constexpr uint64_t kPivots = 512;
  std::vector<node::PivotPage> pivots(kPages);
  for (uint64_t n = 0; n < kPages; ++n) {
    for (uint64_t i = 0; i < kPivots; ++i) {
      pivots[n].append(kv::encode_key((n * kPivots + i) * 3 + 1, 16));
    }
  }
  Rng page_rng(args.seed);
  struct Probe {
    uint64_t page;
    std::string key;
  };
  std::vector<Probe> probes(8192);
  for (Probe& probe : probes) {
    probe.page = page_rng.uniform(kPages);
    probe.key = kv::encode_key(page_rng.uniform(kPages * kPivots * 3 + 2), 16);
  }
  const uint64_t passes = args.quick ? 100 : 300;
  report("slotted_search", passes * probes.size(), [&] {
    uint64_t acc = 0;
    for (uint64_t pass = 0; pass < passes; ++pass) {
      for (const Probe& probe : probes) {
        acc += pivots[probe.page].lower_bound(probe.key);
      }
    }
    g_sink = g_sink + acc;
  });

  // A 256-entry leaf of 16-byte keys and 100-byte values, as its image.
  constexpr uint64_t kLeafEntries = 256;
  std::vector<uint8_t> leaf_image;
  {
    node::KvPage leaf;
    for (uint64_t i = 0; i < kLeafEntries; ++i) {
      leaf.append(kv::encode_key(i * 3 + 1, 16), kv::make_value(i, 100));
    }
    leaf.write_to(&leaf_image);
  }
  // One op = one KvPage::put (an insert, or a replace when the random key
  // is already there) into a freshly parsed leaf, 64 puts per parse.
  constexpr uint64_t kPutsPerParse = 64;
  const uint64_t parses = args.quick ? 50 : 200;
  std::vector<std::string> put_keys(parses * kPutsPerParse);
  for (std::string& key : put_keys) {
    key = kv::encode_key(page_rng.uniform(kLeafEntries * 3 + 2), 16);
  }
  const std::string put_value = kv::make_value(99, 100);
  report("slotted_insert", put_keys.size(), [&] {
    for (uint64_t p = 0; p < parses; ++p) {
      node::KvPage page;
      page.parse(leaf_image.data(), leaf_image.size(), kLeafEntries);
      for (uint64_t i = 0; i < kPutsPerParse; ++i) {
        page.put(put_keys[p * kPutsPerParse + i], put_value);
      }
      g_sink = g_sink + page.count();
    }
  });
  // One op = one KvPage::parse of that leaf plus its write_to.
  const uint64_t roundtrips = args.quick ? 200 : 1000;
  report("slotted_roundtrip", roundtrips, [&] {
    std::vector<uint8_t> out;
    for (uint64_t i = 0; i < roundtrips; ++i) {
      node::KvPage page;
      page.parse(leaf_image.data(), leaf_image.size(), kLeafEntries);
      out.clear();
      page.write_to(&out);
      g_sink = g_sink + out.size();
    }
  });

  // One op = one NodeCache miss of a 16 KiB B-tree leaf at bulk fill (85%
  // of the node: 16 B keys, 100 B values) on the testbed SSD, in a cache
  // that holds one node: the device copy into the read buffer, the parse
  // that adopts it, and the eviction of the clean leaf fetched before.
  constexpr uint64_t kMissNodeBytes = 16 * kKiB;
  constexpr uint64_t kMissLeaves = 64;
  sim::SsdDevice miss_dev(sim::testbed_ssd_profile());
  sim::IoContext miss_io(miss_dev);
  cache::NodeCache<btree::BTreeNode> leaf_cache(
      miss_dev, miss_io, kMissNodeBytes, kMissNodeBytes, 0,
      blockdev::CodecKind::kIdentity);
  for (uint64_t n = 0; n < kMissLeaves; ++n) {
    auto leaf = btree::BTreeNode::make_leaf();
    for (uint64_t i = 0;
         leaf->byte_size() + node::KvRecord::encoded_size(16, 100) <=
         kMissNodeBytes * 85 / 100;
         ++i) {
      leaf->leaf_append(kv::encode_key(n * 1000 + i, 16),
                        kv::make_value(i, 100));
    }
    DAMKIT_CHECK_OK(
        leaf_cache.write_through(leaf_cache.store().allocate(), *leaf));
  }
  // Each id differs from the one before it, cyclically, so every fetch of
  // every repetition misses.
  const uint64_t misses = args.quick ? 2'000 : 10'000;
  std::vector<uint64_t> miss_ids(misses);
  for (uint64_t i = 0; i < misses; ++i) {
    do {
      miss_ids[i] = page_rng.uniform(kMissLeaves);
    } while ((i > 0 && miss_ids[i] == miss_ids[i - 1]) ||
             (i + 1 == misses && miss_ids[i] == miss_ids[0]));
  }
  report("btree_leaf_miss", misses, [&] {
    uint64_t entries = 0;
    for (const uint64_t id : miss_ids) {
      entries += (*leaf_cache.fetch(id))->entry_count();
    }
    g_sink = g_sink + entries;
  });

  // One op = one MemTable::put of a new 16 B key with a 100 B value, in a
  // seeded random order, into a table cleared after every 8k puts (the
  // clear timed with them): an LSM memtable's fill-and-flush cycle
  // without the flush.
  constexpr uint64_t kFillEntries = 8192;
  std::vector<std::pair<std::string, std::string>> fill(kFillEntries);
  for (uint64_t i = 0; i < kFillEntries; ++i) {
    fill[i] = {kv::encode_key(i, 16), kv::make_value(i, 100)};
  }
  for (uint64_t i = kFillEntries; i > 1; --i) {
    std::swap(fill[i - 1], fill[page_rng.uniform(i)]);
  }
  lsm::MemTable memtable;
  const uint64_t fills = args.quick ? 10 : 50;
  report("memtable_fill", fills * kFillEntries, [&] {
    for (uint64_t f = 0; f < fills; ++f) {
      for (const auto& [key, value] : fill) memtable.put(key, value);
      g_sink = g_sink + memtable.approximate_bytes();
      memtable.clear();
    }
  });

  Rng rng(args.seed + 3);
  report("rng_next", draws, [&] {
    uint64_t acc = 0;
    for (uint64_t i = 0; i < draws; ++i) acc += rng.next();
    g_sink = g_sink + acc;
  });
  Zipfian zipf(1'000'000, 0.99);
  report("zipf_sample", draws, [&] {
    uint64_t acc = 0;
    for (uint64_t i = 0; i < draws; ++i) acc += zipf.sample(rng);
    g_sink = g_sink + acc;
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
    g_sink = g_sink + hits;
  });

  // One op = one full layout build of a tree of the given height.
  for (const int height : {10, 16, 20}) {
    const uint64_t builds = uint64_t{1} << (20 - height);
    report(strfmt("veb_layout_h%d", height), builds, [&] {
      for (uint64_t i = 0; i < builds; ++i) {
        g_sink = g_sink + pdam_tree::veb_positions(height).size();
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
  section_e2e(args, &reg);
  section_micro(args, &reg);

  if (!args.metrics_json.empty()) {
    if (!bench::write_metrics_json(reg, args.metrics_json)) return 1;
  }
  return 0;
}
