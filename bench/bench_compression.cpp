// BENCH_compression: does block compression buy exactly the sim time the
// affine model says it should?
//
// The codec layer (src/blockdev/codec.h) keeps the extent layout — and
// therefore every seek and rotation — untouched, and shrinks only the
// transferred bytes of each IO. Under cost(x) = 1 + αx that pins the
// prediction completely: for the SAME workload run with and without a
// codec, the IO count is identical, the setup term cancels, and
//
//     sim_time(identity) − sim_time(codec)  ≈  α · (bytes saved)
//
// with α realized here as the drive's expected transfer seconds per byte.
// Three sections:
//
//   1. affine anchor — uniform random reads on the uniform-zone drive,
//      checking the measured setup/transfer split against the closed form
//      (the CI gate's 5% affine consistency check feeds on this);
//   2. speedup — B-tree read-heavy and Bε-tree write-heavy workloads run
//      per codec; the measured sim-time delta must track α·(bytes saved)
//      within 15% (asserted; non-zero exit on violation). An LSM mixed
//      workload is reported unasserted: compaction boundaries depend on
//      stored sizes, so its IO count is not codec-invariant.
//   3. node-size sweep — query cost vs node size for identity and lz;
//      compression lowers the per-byte term, so the optimal node size
//      must not shrink (asserted) and in practice grows (§5–7: a smaller
//      effective α favors larger nodes).
//
// CI gates the emitted JSON against bench/baselines/
// BENCH_compression_baseline.json via tools/check_bench_regression.py.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "damkit.h"

namespace {

using namespace damkit;

// Uniform-zone drive: zone_ratio 1.0 makes transfer time exactly
// bytes / avg_bandwidth (no zoning noise in the α·bytes prediction), and
// the high spindle speed keeps per-IO rotational phase differences — the
// only nondeterminism between an identity run and a codec run — small
// against the transfer deltas being measured. The modest media rate keeps
// the transfer term (the thing compression attacks) prominent at the
// node sizes swept below.
sim::HddConfig compression_hdd_profile() {
  sim::HddConfig cfg;
  cfg.name = "uniform-zone-hdd";
  cfg.year = 2019;
  cfg.rpm = 15000.0;
  cfg.zone_ratio = 1.0;
  cfg.avg_bandwidth_bps = 50.0e6;
  // A compressed read parks the head at the frame's end, an uncompressed
  // one at the extent's end — sometimes a different track. A fast settle
  // time bounds what that position difference can cost (seek(0) is free,
  // seek(1 track) costs the settle), keeping the delta about transferred
  // bytes rather than head-position luck.
  cfg.track_to_track_s = 0.0001;
  // Not a power of two: power-of-two node extents then land on densely
  // varied intra-track angles, so rotational waits stay phase-decorrelated
  // from the (constant per codec) transfer times. With 2^k extents inside
  // 2^20-byte tracks the 8 quantized target angles phase-lock against the
  // IO cadence and bias the identity-vs-codec delta by whole rotations.
  cfg.track_bytes = 1'000'000;
  return cfg;
}

std::string key_of(uint64_t k) {
  return strfmt("%016llu", static_cast<unsigned long long>(k));
}

// Record-shaped values: repeated field tags and low-entropy filler, the
// redundancy a page of real KV data carries. kv::make_value is designed
// to be incompressible and would starve the codecs of matches.
std::string compressible_value(uint64_t id, size_t bytes) {
  std::string v = strfmt("id=%016llu|tag=record-%04llu|flags=0000|",
                         static_cast<unsigned long long>(id),
                         static_cast<unsigned long long>(id % 10000));
  while (v.size() < bytes) {
    v.append("the quick brown fox jumps over the lazy disk arm ");
  }
  v.resize(bytes);
  return v;
}

// Section 1: the affine anchor. Track-aligned sub-track reads at uniform
// random tracks, so measured setup is the closed-form mean seek + half a
// rotation + command overhead and measured transfer is pure media time.
void run_affine_anchor(const bench::BenchArgs& args,
                       stats::MetricsRegistry& reg) {
  const sim::HddConfig profile = compression_hdd_profile();
  sim::HddDevice dev(profile);
  sim::IoContext io(dev);
  Rng rng(args.seed);
  const uint64_t io_bytes = profile.track_bytes / 4;
  const uint64_t tracks = profile.capacity_bytes / profile.track_bytes;
  const int ios = args.quick ? 600 : 2400;
  for (int i = 0; i < ios; ++i) {
    const uint64_t offset = (rng.next() % tracks) * profile.track_bytes;
    DAMKIT_CHECK_OK(io.touch_read_checked(offset, io_bytes));
  }
  dev.export_metrics(reg, "hdd.");
  reg.set("hdd.sim_seconds", sim::to_seconds(io.now()));
}

// One workload run on a fresh device: simulated seconds, device IO count
// and byte volume, and the engine's codec ratio (1.0 under identity).
struct RunOutcome {
  double sim_s = 0.0;
  uint64_t ios = 0;
  uint64_t bytes = 0;
  double ratio = 1.0;
};

struct Workload {
  const char* name;
  kv::EngineKind kind;
  /// Exercise the engine; bulk-load plus op stream, all through `dict`.
  void (*drive)(const bench::BenchArgs&, kv::Dictionary&);
  /// IO count must match across codecs (setup cancels in the delta).
  bool codec_invariant_ios;
};

RunOutcome run_workload(const bench::BenchArgs& args, const Workload& wl,
                        blockdev::CodecKind codec) {
  sim::HddDevice dev(compression_hdd_profile(), args.seed);
  sim::IoContext io(dev);
  kv::EngineConfig cfg;
  cfg.codec = codec;
  cfg.btree.node_bytes = 128 * kKiB;
  cfg.btree.cache_bytes = 2 * kMiB;
  cfg.betree.node_bytes = 128 * kKiB;
  cfg.betree.cache_bytes = 1 * kMiB;
  cfg.lsm.memtable_bytes = 256 * kKiB;
  cfg.lsm.sstable_target_bytes = 128 * kKiB;
  cfg.lsm.level1_bytes = 1 * kMiB;
  const auto dict = kv::make_engine(wl.kind, dev, io, cfg);

  wl.drive(args, *dict);
  dict->flush();

  RunOutcome out;
  out.sim_s = sim::to_seconds(io.now());
  out.ios = dev.stats().reads + dev.stats().writes;
  out.bytes = dev.stats().bytes_read + dev.stats().bytes_written;
  stats::MetricsRegistry tree;
  dict->export_metrics(tree, "t.");
  for (const char* gauge : {"t.store.codec.ratio", "t.codec.ratio"}) {
    if (tree.has_gauge(gauge)) out.ratio = tree.gauge(gauge);
  }
  return out;
}

void drive_btree_reads(const bench::BenchArgs& args, kv::Dictionary& dict) {
  const uint64_t n = args.quick ? 20'000 : 60'000;
  dict.bulk_load(n, [](uint64_t i) {
    return std::make_pair(key_of(i * 2), compressible_value(i, 100));
  });
  Rng rng(args.seed + 11);
  const uint64_t gets = args.quick ? 1'500 : 4'000;
  for (uint64_t g = 0; g < gets; ++g) {
    (void)dict.get(key_of((rng.next() % n) * 2));
  }
}

void drive_betree_writes(const bench::BenchArgs& args, kv::Dictionary& dict) {
  const uint64_t n = args.quick ? 8'000 : 24'000;
  Rng rng(args.seed + 13);
  for (uint64_t p = 0; p < n; ++p) {
    const uint64_t id = rng.next() % (n * 4);
    dict.put(key_of(id), compressible_value(id, 100));
  }
}

void drive_lsm_mixed(const bench::BenchArgs& args, kv::Dictionary& dict) {
  const uint64_t n = args.quick ? 8'000 : 24'000;
  Rng rng(args.seed + 17);
  for (uint64_t p = 0; p < n; ++p) {
    const uint64_t id = rng.next() % (n * 2);
    dict.put(key_of(id), compressible_value(id, 100));
    if (p % 4 == 0) (void)dict.get(key_of(rng.next() % (n * 2)));
  }
}

// Section 3: node-size sweep (B-tree, identity vs lz). The workload is
// the §5 OLTP/OLAP mix: every op is one random point get plus one short
// range scan. Point gets want small nodes (pay setup once, αB is waste);
// scans want large nodes (amortize setup over the scanned range) — the
// affine model puts the optimum at B* ≈ sqrt(scan_bytes · s / α), so a
// codec that shrinks the effective α by ratio ρ must move the optimum out
// by about 1/sqrt(ρ). The cache is a few nodes (root + internals): leaf
// IOs miss at every node size, keeping the s-vs-αB tradeoff visible.
struct SweepOutcome {
  double query_ms = 0.0;  // mean simulated ms per (get + scan) op
  double sim_s = 0.0;     // whole point, load included (the gated total)
};

SweepOutcome run_sweep_point(const bench::BenchArgs& args, uint64_t node_bytes,
                             blockdev::CodecKind codec) {
  sim::HddDevice dev(compression_hdd_profile(), args.seed);
  sim::IoContext io(dev);
  const uint64_t n = args.quick ? 60'000 : 150'000;
  kv::EngineConfig cfg;
  cfg.codec = codec;
  cfg.btree.node_bytes = node_bytes;
  // Constant byte budget at every sweep point (a cache that scaled with B
  // would hand large nodes an unrelated advantage), floored at a
  // root-to-leaf path for the largest nodes. Small against the data set,
  // so leaf IOs miss throughout.
  cfg.btree.cache_bytes = std::max<uint64_t>(2 * kMiB, node_bytes * 4);
  const auto dict =
      kv::make_engine(kv::EngineKind::kBTree, dev, io, cfg);
  dict->bulk_load(n, [](uint64_t i) {
    return std::make_pair(key_of(i * 2), compressible_value(i, 100));
  });

  Rng rng(args.seed ^ node_bytes);
  const uint64_t ops = args.quick ? 300 : 1'000;
  const size_t scan_items = 320;  // ~37 KiB of records per scan
  const sim::SimTime before = io.now();
  for (uint64_t q = 0; q < ops; ++q) {
    (void)dict->get(key_of((rng.next() % n) * 2));
    (void)dict->range_scan(key_of((rng.next() % n) * 2), scan_items);
  }
  SweepOutcome out;
  out.query_ms =
      sim::to_seconds(io.now() - before) * 1e3 / static_cast<double>(ops);
  out.sim_s = sim::to_seconds(io.now());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv);
  if (args.metrics_json.empty()) args.metrics_json = "BENCH_compression.json";
  bench::banner("block compression vs the affine model",
                "§4.2 extension: codecs shrink αx, never the setup term");

  const sim::HddConfig profile = compression_hdd_profile();
  const double alpha_s_per_byte = profile.expected_transfer_s_per_byte();
  int failures = 0;
  stats::MetricsRegistry reg;
  run_affine_anchor(args, reg);

  // --- Section 2: measured speedup vs α·(bytes saved) ---------------------
  const std::vector<Workload> workloads = {
      {"btree_reads", kv::EngineKind::kBTree, drive_btree_reads, true},
      {"betree_writes", kv::EngineKind::kBeTree, drive_betree_writes, true},
      {"lsm_mixed", kv::EngineKind::kLsm, drive_lsm_mixed, false},
  };
  const std::vector<blockdev::CodecKind> codecs = {
      blockdev::CodecKind::kIdentity, blockdev::CodecKind::kPrefix,
      blockdev::CodecKind::kLz};

  // All (workload, codec) runs are independent; run them on the thread
  // pool and compare after the barrier.
  std::vector<RunOutcome> outcomes(workloads.size() * codecs.size());
  harness::parallel_sweep(outcomes.size(), args.threads, [&](size_t i) {
    outcomes[i] =
        run_workload(args, workloads[i / codecs.size()], codecs[i % codecs.size()]);
  });

  Table speedup({"workload", "codec", "sim_s", "ios", "MiB", "ratio",
                 "saved_MiB", "measured_ds", "alpha*saved", "err%"});
  for (size_t w = 0; w < workloads.size(); ++w) {
    const RunOutcome& base = outcomes[w * codecs.size()];
    for (size_t c = 0; c < codecs.size(); ++c) {
      const RunOutcome& out = outcomes[w * codecs.size() + c];
      const std::string prefix = std::string("compression.") +
                                 workloads[w].name + "." +
                                 std::string(blockdev::codec_kind_name(codecs[c]));
      reg.set(prefix + ".sim_seconds", out.sim_s);
      reg.set(prefix + ".device_mib",
              static_cast<double>(out.bytes) / static_cast<double>(kMiB));
      reg.set(prefix + ".codec_ratio", out.ratio);
      const std::string cname(blockdev::codec_kind_name(codecs[c]));
      std::string measured = "-", predicted = "-", err = "-", saved = "-";
      if (c > 0) {
        const double saved_bytes =
            static_cast<double>(base.bytes) - static_cast<double>(out.bytes);
        const double predicted_ds = saved_bytes * alpha_s_per_byte;
        const double measured_ds = base.sim_s - out.sim_s;
        const double rel_err =
            std::abs(measured_ds - predicted_ds) / predicted_ds;
        reg.set(prefix + ".alpha_tracking_error", rel_err);
        saved = strfmt("%.1f", saved_bytes / static_cast<double>(kMiB));
        measured = strfmt("%.3f", measured_ds);
        predicted = strfmt("%.3f", predicted_ds);
        err = strfmt("%.1f", rel_err * 100.0);
        if (workloads[w].codec_invariant_ios) {
          if (out.ios != base.ios) {
            std::fprintf(stderr,
                         "FAIL %s/%s: IO count changed under compression "
                         "(%llu vs %llu) — setup no longer cancels\n",
                         workloads[w].name, cname.c_str(),
                         static_cast<unsigned long long>(out.ios),
                         static_cast<unsigned long long>(base.ios));
            ++failures;
          }
          if (rel_err > 0.15) {
            std::fprintf(stderr,
                         "FAIL %s/%s: measured speedup %.3fs is %.1f%% off "
                         "alpha*(bytes saved) = %.3fs (limit 15%%)\n",
                         workloads[w].name, cname.c_str(), measured_ds,
                         rel_err * 100.0, predicted_ds);
            ++failures;
          }
        }
      }
      speedup.add_row({workloads[w].name,
                       std::string(blockdev::codec_kind_name(codecs[c])),
                       strfmt("%.3f", out.sim_s),
                       strfmt("%llu", static_cast<unsigned long long>(out.ios)),
                       strfmt("%.1f", static_cast<double>(out.bytes) /
                                          static_cast<double>(kMiB)),
                       strfmt("%.3f", out.ratio), saved, measured, predicted,
                       err});
    }
  }
  harness::emit("Compression speedup vs alpha * bytes saved (uniform-zone "
                "HDD, alpha = 1/50 MB/s)",
                speedup, args.csv_prefix + "compression_speedup.csv");
  std::printf(
      "model: identical IO counts mean the setup term cancels; the sim-time\n"
      "delta must equal the transfer delta = alpha * (bytes saved). LSM is\n"
      "reported unasserted (compaction boundaries depend on stored sizes).\n");

  // --- Section 3: node-size sweep, identity vs lz -------------------------
  const std::vector<uint64_t> node_sizes = {16 * kKiB,  32 * kKiB,
                                            64 * kKiB,  128 * kKiB,
                                            256 * kKiB, 512 * kKiB};
  const std::vector<blockdev::CodecKind> sweep_codecs = {
      blockdev::CodecKind::kIdentity, blockdev::CodecKind::kLz};
  std::vector<SweepOutcome> sweep(node_sizes.size() * sweep_codecs.size());
  harness::parallel_sweep(sweep.size(), args.threads, [&](size_t i) {
    sweep[i] = run_sweep_point(args, node_sizes[i % node_sizes.size()],
                               sweep_codecs[i / node_sizes.size()]);
  });

  Table fig({"node_KiB", "identity_query_ms", "lz_query_ms"});
  std::vector<uint64_t> best(sweep_codecs.size());
  for (size_t c = 0; c < sweep_codecs.size(); ++c) {
    const std::string cname(blockdev::codec_kind_name(sweep_codecs[c]));
    double total_s = 0.0;
    double min_ms = sweep[c * node_sizes.size()].query_ms;
    for (size_t s = 0; s < node_sizes.size(); ++s) {
      const SweepOutcome& point = sweep[c * node_sizes.size() + s];
      total_s += point.sim_s;
      min_ms = std::min(min_ms, point.query_ms);
      reg.set(strfmt("compression.sweep.%s.q%llu_ms", cname.c_str(),
                     static_cast<unsigned long long>(node_sizes[s] / kKiB)),
              point.query_ms);
    }
    // The optimum is reported as the right edge of the plateau: the
    // largest node size within 3% of the minimum. Near the optimum the
    // cost curve is flat, so a raw argmin is decided by rotational-phase
    // noise; the plateau edge is what a designer would provision, and it
    // is exactly what a smaller effective α extends rightward.
    for (size_t s = 0; s < node_sizes.size(); ++s) {
      if (sweep[c * node_sizes.size() + s].query_ms <= min_ms * 1.03) {
        best[c] = node_sizes[s];
      }
    }
    reg.set("compression.sweep." + cname + ".sim_seconds", total_s);
    reg.set("compression.sweep." + cname + ".best_node_kib",
            static_cast<double>(best[c] / kKiB));
  }
  for (size_t s = 0; s < node_sizes.size(); ++s) {
    fig.add_row(
        {strfmt("%llu", static_cast<unsigned long long>(node_sizes[s] / kKiB)),
         strfmt("%.3f", sweep[s].query_ms),
         strfmt("%.3f", sweep[node_sizes.size() + s].query_ms)});
  }
  harness::emit("B-tree query cost vs node size, identity vs lz",
                fig, args.csv_prefix + "compression_sweep.csv");
  std::printf("optimal node size: identity %llu KiB, lz %llu KiB\n",
              static_cast<unsigned long long>(best[0] / kKiB),
              static_cast<unsigned long long>(best[1] / kKiB));
  if (best[1] < best[0]) {
    std::fprintf(stderr,
                 "FAIL sweep: compression shrank the optimal node size "
                 "(%llu KiB < %llu KiB) — a smaller effective alpha must "
                 "favor nodes at least as large\n",
                 static_cast<unsigned long long>(best[1] / kKiB),
                 static_cast<unsigned long long>(best[0] / kKiB));
    ++failures;
  }

  if (failures > 0) {
    std::fprintf(stderr, "%d compression model check(s) FAILED\n", failures);
  }
  const bool wrote = bench::write_metrics_json(reg, args.metrics_json);
  return (failures == 0 && wrote) ? 0 : 1;
}
