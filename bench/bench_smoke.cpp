// BENCH_smoke: a reduced cross-layer sweep whose only product is a
// metrics snapshot (BENCH_smoke.json). CI runs it on every push and gates
// merges two ways:
//
//   1. regression — simulated-time gauges (*.sim_seconds / *.sim_steps)
//      must stay within 15% of the checked-in baseline
//      (bench/baselines/BENCH_smoke_baseline.json);
//   2. model consistency — the HDD section's measured setup/transfer
//      split must land within 5% of the closed-form affine prediction
//      for the Table-2 drive (hdd.predicted_* gauges).
//
// Sections run under parallel_sweep, so a --threads 2 run also exercises
// the registry's merge determinism: output is bit-identical for any
// thread count.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "damkit.h"

namespace {

using namespace damkit;

// §4.2 surrogate: uniform random fixed-size reads on the Table-2 drive.
// The device decomposes each IO into setup (command + seek + rotation)
// and transfer (zoned media) time; over a uniform workload the means must
// match HddConfig's closed-form expectations.
void run_hdd_affine(const bench::BenchArgs& args, stats::MetricsRegistry& reg) {
  const sim::HddConfig profile = sim::paper_hdd_profiles()[0];
  sim::HddDevice dev(profile);
  sim::IoContext io(dev);
  Rng rng(args.seed);
  // Track-aligned IOs smaller than one track: the measured transfer time
  // is then pure zoned media time, with no head-switch charges mixed in,
  // so it is comparable to the closed-form 1/avg_bandwidth.
  const uint64_t io_bytes = profile.track_bytes / 4;
  const uint64_t tracks = profile.capacity_bytes / profile.track_bytes;
  const int ios = args.quick ? 500 : 2000;
  for (int i = 0; i < ios; ++i) {
    const uint64_t offset = (rng.next() % tracks) * profile.track_bytes;
    DAMKIT_CHECK_OK(io.touch_read_checked(offset, io_bytes));
  }
  dev.export_metrics(reg, "hdd.");
  reg.set("hdd.sim_seconds", sim::to_seconds(io.now()));
}

// §4.1 surrogate: full-width read batches on the testbed SSD. Batch width
// equals the die count, so every die serves one request per round and the
// exported per-die utilizations stay balanced.
void run_ssd_batch(const bench::BenchArgs& args, stats::MetricsRegistry& reg) {
  const sim::SsdConfig profile = sim::testbed_ssd_profile();
  sim::SsdDevice dev(profile);
  sim::IoContext io(dev);
  Rng rng(args.seed + 1);
  const uint64_t stripes = profile.capacity_bytes / profile.stripe_bytes;
  const int width = profile.total_dies();
  const int rounds = args.quick ? 150 : 600;
  std::vector<sim::IoRequest> batch;
  for (int r = 0; r < rounds; ++r) {
    batch.clear();
    for (int w = 0; w < width; ++w) {
      batch.push_back({sim::IoKind::kRead,
                       (rng.next() % stripes) * profile.stripe_bytes,
                       profile.stripe_bytes});
    }
    DAMKIT_CHECK_OK(io.submit_batch_checked(
        batch, [](size_t, const Status&) { return Status(); }));
  }
  dev.export_metrics(reg, "ssd.");
  reg.set("ssd.sim_seconds", sim::to_seconds(io.now()));
}

// The engine sections: bulk-load `bulk` keys (0 = none), drive `ops` ops
// of `spec` through WorkloadRunner (which flushes at the end), export the
// engine's metrics and the section's simulated time.
void run_engine_section(const char* section, kv::Dictionary& dict,
                        sim::IoContext& io, const kv::WorkloadSpec& spec,
                        uint64_t bulk, uint64_t ops,
                        stats::MetricsRegistry& reg) {
  harness::WorkloadRunner runner(dict, io);
  runner.bulk_load(bulk, spec);
  runner.run(spec, ops);
  const std::string prefix = std::string(section) + ".";
  dict.export_metrics(reg, prefix);
  reg.set(prefix + "sim_seconds", sim::to_seconds(io.now()));
}

/// Uniform puts/gets over `key_space` ids (a bulk load fills the lower
/// half when the section has one).
kv::WorkloadSpec put_get_spec(uint64_t key_space, size_t value_bytes,
                              double put_weight, uint64_t seed) {
  kv::WorkloadSpec spec;
  spec.key_space = key_space;
  spec.value_bytes = value_bytes;
  spec.put_weight = put_weight;
  spec.get_weight = 1.0 - put_weight;
  spec.seed = seed;
  return spec;
}

void run_btree(const bench::BenchArgs& args, stats::MetricsRegistry& reg) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  kv::EngineConfig config;
  config.btree.node_bytes = 64 * 1024;
  config.btree.cache_bytes = 2 * 1024 * 1024;
  const auto dict = kv::make_engine(kv::EngineKind::kBTree, dev, io, config);
  const uint64_t n = args.quick ? 4000 : 20000;
  run_engine_section("btree", *dict, io,
                     put_get_spec(n * 2, 64, 0.5, args.seed + 2), n, n, reg);
}

void run_betree(const bench::BenchArgs& args, stats::MetricsRegistry& reg) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  kv::EngineConfig config;
  config.betree.node_bytes = 128 * 1024;
  config.betree.cache_bytes = 1024 * 1024;
  const auto dict = kv::make_engine(kv::EngineKind::kBeTree, dev, io, config);
  const uint64_t n = args.quick ? 6000 : 30000;
  run_engine_section("betree", *dict, io,
                     put_get_spec(n * 4, 100, 0.8, args.seed + 3), 0,
                     n + n / 4, reg);
}

void run_lsm(const bench::BenchArgs& args, stats::MetricsRegistry& reg) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  kv::EngineConfig config;
  config.lsm.memtable_bytes = 256 * 1024;
  config.lsm.sstable_target_bytes = 128 * 1024;
  config.lsm.level1_bytes = 512 * 1024;
  const auto dict = kv::make_engine(kv::EngineKind::kLsm, dev, io, config);
  const uint64_t n = args.quick ? 6000 : 30000;
  run_engine_section("lsm", *dict, io,
                     put_get_spec(n * 4, 100, 0.8, args.seed + 4), 0,
                     n + n / 4, reg);
}

// §8 surrogate: the PDAM B-tree has no wall clock, only time steps; the
// occupancy gauge reports how much of the per-step P-slot budget the
// clients consumed.
void run_pdam(const bench::BenchArgs& args, stats::MetricsRegistry& reg) {
  const uint64_t n = args.quick ? 1u << 16 : 1u << 18;
  std::vector<uint64_t> keys(n);
  for (uint64_t i = 0; i < n; ++i) keys[i] = i * 7 + 3;
  pdam_tree::PdamTreeConfig config;
  config.parallelism = 8;
  const harness::PdamQueryRun run = harness::run_pdam_tree_queries(
      keys, config, {config.parallelism}, args.quick ? 200 : 800,
      args.seed + 5);
  const auto& rr = run.points[0].result;
  reg.add("pdam.steps", rr.steps);
  reg.add("pdam.queries", rr.queries);
  reg.add("pdam.block_fetch_runs", rr.block_fetch_runs);
  reg.add("pdam.blocks_fetched", rr.blocks_fetched);
  reg.set("pdam.throughput_queries_per_step", rr.throughput());
  reg.set("pdam.slot_occupancy", rr.slot_occupancy(config.parallelism));
  reg.set("pdam.sim_steps", static_cast<double>(rr.steps));
}

// Router smoke: the same B-tree workload shape fanned across a 4-shard
// ShardedEngine (hash partitioning, one device region per shard), with a
// few cross-shard ordered-merge scans. Gated like every other section via
// sharded.sim_seconds.
void run_sharded(const bench::BenchArgs& args, stats::MetricsRegistry& reg) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  kv::EngineConfig config;
  config.btree.node_bytes = 64 * 1024;
  config.btree.cache_bytes = 512 * 1024;
  kv::ShardedConfig sharded;
  sharded.shards = 4;
  kv::ShardedEngine engine(kv::EngineKind::kBTree, dev, io, config, sharded);
  const uint64_t n = args.quick ? 4000 : 20000;
  kv::WorkloadSpec spec = put_get_spec(n * 2, 64, 0.5, args.seed + 6);
  spec.scan_weight = 0.002;  // ~8 scans per 4000 ops
  spec.scan_length = 100;
  run_engine_section("sharded", engine, io, spec, n, n, reg);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv);
  if (args.metrics_json.empty()) args.metrics_json = "BENCH_smoke.json";
  bench::banner("cross-layer metrics smoke sweep",
                "§4.1, §4.2, §7, §8 (reduced scale)");

  struct Section {
    const char* name;
    std::function<void(const bench::BenchArgs&, stats::MetricsRegistry&)> run;
  };
  const std::vector<Section> sections = {
      {"hdd", run_hdd_affine}, {"ssd", run_ssd_batch}, {"btree", run_btree},
      {"betree", run_betree},  {"lsm", run_lsm},       {"pdam", run_pdam},
      {"sharded", run_sharded},
  };

  std::vector<stats::MetricsRegistry> per_section(sections.size());
  harness::parallel_sweep(sections.size(), args.threads, [&](size_t i) {
    sections[i].run(args, per_section[i]);
  });

  // Merge in section order: deterministic for any host thread count.
  stats::MetricsRegistry merged;
  for (const auto& reg : per_section) merged.merge(reg);

  Table summary({"section", "sim_seconds"});
  for (const auto& s : sections) {
    const std::string gauge = std::string(s.name) + ".sim_seconds";
    summary.add_row({s.name, merged.has_gauge(gauge)
                                 ? strfmt("%.4f", merged.gauge(gauge))
                                 : std::string("-")});
  }
  std::fputs(summary.to_string().c_str(), stdout);

  std::printf("affine split on %s:\n", "the Table-2 drive");
  std::printf("  setup/IO      measured %.6f s, predicted %.6f s\n",
              merged.gauge("hdd.setup_seconds_per_io"),
              merged.gauge("hdd.predicted_setup_seconds_per_io"));
  std::printf("  transfer/byte measured %.3e s, predicted %.3e s\n",
              merged.gauge("hdd.transfer_seconds_per_byte"),
              merged.gauge("hdd.predicted_transfer_seconds_per_byte"));

  return bench::write_metrics_json(merged, args.metrics_json) ? 0 : 1;
}
