// BENCH_concurrency: serving-layer throughput as a function of concurrent
// clients, gated against the PDAM Lemma 13 prediction.
//
// One section per client count k drives the same get-only workload through
// WorkloadRunner::run_concurrent (replayed by serve::replay) against a B-tree
// whose 16 KiB nodes each occupy exactly one die stripe of a P = 8 SSD.
// Every client keeps one op outstanding (inflight = 1), so the sweep is
// the closed-loop experiment Lemma 13 models: throughput should grow as
// Omega(k / log_{PB/k} N) until k reaches the device parallelism P, then
// flatten.
//
// CI gates this snapshot (BENCH_concurrency.json) three ways:
//   1. regression — concurrency.k<k>.sim_seconds vs the checked-in
//      baseline (bench/baselines/BENCH_concurrency_baseline.json);
//   2. model consistency — pdam_measured_ratio.k<k> must agree with
//      pdam_predicted_ratio.k<k> within 35% (the prediction is an Omega()
//      bound, not an equality), via check_bench_regression.py --no-affine;
//   3. the in-binary checks below: the same tolerance, a saturation check
//      past k = P, and digest equality across all client counts (the
//      record/replay split must not perturb results).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "damkit.h"

namespace {

using namespace damkit;

// The device parallelism the sweep saturates; mirrored in bench_ssd_config.
constexpr double kParallelism = 8.0;
constexpr uint64_t kNodeBytes = 16 * 1024;

// Clean P = 8 SSD: four channels x two dies, one 16 KiB node per stripe so
// every leaf read occupies exactly one die for one page-service round.
sim::SsdConfig bench_ssd_config() {
  sim::SsdConfig cfg;
  cfg.name = "concurrency-testbed";
  cfg.capacity_bytes = 4ULL * 1024 * 1024 * 1024;
  cfg.channels = 4;
  cfg.dies_per_channel = 2;
  cfg.page_bytes = 4096;
  cfg.stripe_bytes = kNodeBytes;
  cfg.page_read_s = 60e-6;
  cfg.page_write_s = 250e-6;
  cfg.bus_s_per_page = 3e-6;
  cfg.command_overhead_s = 10e-6;
  cfg.link_bps = 0.0;  // die service, not the host link, bounds throughput
  return cfg;
}

uint64_t items_for(const bench::BenchArgs& args) {
  return args.quick ? 20000 : 60000;
}

kv::WorkloadSpec bench_spec(const bench::BenchArgs& args) {
  kv::WorkloadSpec spec;
  spec.key_space = items_for(args);
  spec.value_bytes = 64;
  spec.get_weight = 1.0;  // pure point queries, the Lemma 13 workload
  spec.put_weight = 0.0;
  spec.seed = args.seed + 11;
  return spec;
}

struct PointResult {
  uint64_t digest = 0;
  double concurrent_seconds = 0.0;
  double throughput_ops_per_sec = 0.0;
};

PointResult run_point(const bench::BenchArgs& args, uint64_t clients,
                      stats::MetricsRegistry& reg) {
  const sim::SsdConfig cfg = bench_ssd_config();
  sim::SsdDevice dev(cfg);
  sim::IoContext io(dev);
  kv::EngineConfig config;
  config.btree.node_bytes = kNodeBytes;
  // Room for the internal levels only: leaf reads miss, so each get costs
  // about one block IO — the per-step unit the model counts.
  config.btree.cache_bytes = 128 * 1024;
  const auto dict = kv::make_engine(kv::EngineKind::kBTree, dev, io, config);
  const kv::WorkloadSpec spec = bench_spec(args);
  harness::WorkloadRunner runner(*dict, io);
  runner.bulk_load(items_for(args), spec);

  harness::ConcurrentRunOptions copts;
  copts.clients = clients;
  copts.inflight = 1;  // one op outstanding per client: the closed loop
  copts.flush_at_end = false;
  copts.replay_device_factory = [cfg]() -> std::unique_ptr<sim::Device> {
    return std::make_unique<sim::SsdDevice>(cfg);
  };
  copts.lanes = static_cast<size_t>(cfg.total_dies());
  copts.lane_of = [cfg](uint64_t offset) {
    return static_cast<size_t>(cfg.die_of(offset));
  };
  const uint64_t ops = args.quick ? 2000 : 6000;
  const harness::ConcurrentRunResult run =
      runner.run_concurrent(spec, ops, copts);

  const std::string prefix =
      strfmt("concurrency.k%llu.", static_cast<unsigned long long>(clients));
  reg.set(prefix + "sim_seconds", sim::to_seconds(run.concurrent_elapsed));
  reg.set(prefix + "serial_seconds", sim::to_seconds(run.base.sim_elapsed));
  reg.set(prefix + "speedup", run.speedup);
  reg.set(prefix + "throughput_ops_per_sec", run.throughput_ops_per_sec);
  reg.add(prefix + "batches", run.batches);
  reg.add(prefix + "batch_ios", run.batch_ios);
  stats::export_histogram_summary(reg, prefix + "latency_ns", run.latency);

  PointResult out;
  out.digest = run.base.digest;
  out.concurrent_seconds = sim::to_seconds(run.concurrent_elapsed);
  out.throughput_ops_per_sec = run.throughput_ops_per_sec;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv);
  if (args.metrics_json.empty()) args.metrics_json = "BENCH_concurrency.json";
  bench::banner("serving-layer throughput vs concurrent clients",
                "§8, Lemma 13 (PDAM vEB B-tree)");

  // Sweep past the device parallelism: {1, 2, 4, P, 2P, 4P}.
  const std::vector<uint64_t> ks = {1, 2, 4, 8, 16, 32};

  std::vector<stats::MetricsRegistry> per_point(ks.size());
  std::vector<PointResult> points(ks.size());
  harness::parallel_sweep(ks.size(), args.threads, [&](size_t i) {
    points[i] = run_point(args, ks[i], per_point[i]);
  });

  stats::MetricsRegistry merged;
  for (const auto& reg : per_point) merged.merge(reg);

  const double n_items = static_cast<double>(items_for(args));
  const model::PdamModel model(kParallelism, kNodeBytes);
  const double veb1 = model.veb_btree_throughput(1.0, n_items);
  const double t1 = points[0].concurrent_seconds;
  const double tolerance = 0.35;

  int failures = 0;
  Table table({"clients", "sim_seconds", "measured_x", "predicted_x",
               "p99_us"});
  for (size_t i = 0; i < ks.size(); ++i) {
    const double k = static_cast<double>(ks[i]);
    const double measured = t1 / points[i].concurrent_seconds;
    // Lemma 13 covers k <= P; past saturation the prediction stays flat.
    const double predicted =
        model.veb_btree_throughput(std::min(k, kParallelism), n_items) / veb1;
    const std::string suffix =
        strfmt("k%llu", static_cast<unsigned long long>(ks[i]));
    merged.set("pdam_measured_ratio." + suffix, measured);
    merged.set("pdam_predicted_ratio." + suffix, predicted);
    const double err = std::abs(measured - predicted) / predicted;
    if (err > tolerance) {
      std::fprintf(stderr,
                   "FAIL %s: measured %.2fx vs predicted %.2fx "
                   "(%.0f%% > %.0f%%)\n",
                   suffix.c_str(), measured, predicted, err * 100.0,
                   tolerance * 100.0);
      ++failures;
    }
    if (points[i].digest != points[0].digest) {
      std::fprintf(stderr, "FAIL %s: digest diverges from the k=1 run\n",
                   suffix.c_str());
      ++failures;
    }
    table.add_row({strfmt("%llu", static_cast<unsigned long long>(ks[i])),
                   strfmt("%.4f", points[i].concurrent_seconds),
                   strfmt("%.2f", measured), strfmt("%.2f", predicted),
                   strfmt("%.1f",
                          merged.gauge("concurrency." + suffix +
                                       ".latency_ns.p99") /
                              1000.0)});
  }

  // Saturation: going from k = P to k = 4P must not regress throughput and
  // must not exceed the P-way speedup ceiling (with 10% slack for batch
  // boundary effects).
  const size_t ip = 3, i4p = 5;  // ks[3] = P, ks[5] = 4P
  const double at_p = t1 / points[ip].concurrent_seconds;
  const double at_4p = t1 / points[i4p].concurrent_seconds;
  if (at_4p + 1e-9 < at_p) {
    std::fprintf(stderr, "FAIL saturation: k=4P speedup %.2fx < k=P %.2fx\n",
                 at_4p, at_p);
    ++failures;
  }
  if (at_4p > 1.1 * kParallelism) {
    std::fprintf(stderr, "FAIL saturation: k=4P speedup %.2fx > 1.1*P\n",
                 at_4p);
    ++failures;
  }

  std::fputs(table.to_string().c_str(), stdout);
  std::printf("saturation: %.2fx at k=P, %.2fx at k=4P (ceiling %.1fx)\n",
              at_p, at_4p, 1.1 * kParallelism);
  if (failures > 0) {
    std::fprintf(stderr, "%d gate failure(s)\n", failures);
  }

  const bool wrote = bench::write_metrics_json(merged, args.metrics_json);
  return (wrote && failures == 0) ? 0 : 1;
}
