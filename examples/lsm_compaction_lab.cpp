// LSM compaction lab: watch a leveled LSM-tree's shape and IO evolve as
// data streams in, and capture the device trace it induces.
//
// The paper's §1 groups LSM-trees with Bε-trees as the write-optimized
// dictionaries whose (large, DAM-invisible) unit sizes the affine model
// explains. This example makes the machinery tangible: level occupancy
// after each burst, compaction traffic, bloom-filter effectiveness, and
// the sequential-write pattern that makes LSM ingest fast on spinning
// disks — shown straight from the recorded IO trace.
//
//   ./examples/lsm_compaction_lab
#include <cstdio>

#include "damkit.h"

int main() {
  using namespace damkit;

  sim::HddDevice disk(sim::testbed_hdd_profile());
  sim::IoContext io(disk);
  sim::IoTrace trace;
  disk.set_trace(&trace);

  kv::EngineConfig config;
  config.lsm.memtable_bytes = 512 * kKiB;
  config.lsm.sstable_target_bytes = 1 * kMiB;
  config.lsm.level1_bytes = 4 * kMiB;
  config.lsm.size_ratio = 4.0;
  const auto db = kv::make_engine(kv::EngineKind::kLsm, disk, io, config);

  // Everything the old per-tree accessors exposed is in the metrics
  // export: level shapes as lsm.level<i>.* gauges, compaction and bloom
  // counters alongside them.
  const auto snapshot = [&db] {
    stats::MetricsRegistry reg;
    db->export_metrics(reg, "lsm.");
    return reg;
  };

  Rng rng(2024);
  constexpr uint64_t kBurst = 20'000;
  constexpr int kBursts = 6;

  std::printf("burst  levels: table counts        compactions  comp GB in/out  sim time\n");
  for (int burst = 1; burst <= kBursts; ++burst) {
    for (uint64_t i = 0; i < kBurst; ++i) {
      const uint64_t id = rng.uniform(1'000'000);
      db->put(kv::encode_key(id), kv::make_value(id, 100));
    }
    db->flush();
    const stats::MetricsRegistry reg = snapshot();
    std::string shape;
    for (size_t l = 0; l < db->height(); ++l) {
      const std::string gauge = strfmt("lsm.level%zu.tables", l);
      shape += strfmt("L%zu:%llu ", l,
                      static_cast<unsigned long long>(reg.gauge(gauge)));
    }
    std::printf("%5d  %-28s %11llu  %6.2f/%.2f     %7.2fs\n", burst,
                shape.c_str(),
                static_cast<unsigned long long>(
                    reg.counter("lsm.compactions")),
                static_cast<double>(reg.counter("lsm.compaction_bytes_in")) /
                    1e9,
                static_cast<double>(reg.counter("lsm.compaction_bytes_out")) /
                    1e9,
                sim::to_seconds(io.now()));
  }

  // Point-query mix: uniform ids from the written range (~11% of the 1M
  // id space got written) plus guaranteed misses — misses are what bloom
  // filters exist for.
  Rng probe(77);
  uint64_t hits = 0;
  for (int q = 0; q < 2000; ++q) {
    const uint64_t id = (q % 2 == 0) ? probe.uniform(1'000'000)
                                     : 2'000'000 + probe.uniform(1'000'000);
    hits += db->get(kv::encode_key(id)).has_value() ? 1 : 0;
  }
  std::printf("\npoint queries: 2000 issued, %llu hits\n",
              static_cast<unsigned long long>(hits));

  const stats::MetricsRegistry reg = snapshot();
  const uint64_t bloom_negative = reg.counter("lsm.bloom_negative");
  const uint64_t table_probes = reg.counter("lsm.table_probes");
  std::printf("\nbloom filters: %llu of %llu table probes skipped "
              "(%.0f%%)\n",
              static_cast<unsigned long long>(bloom_negative),
              static_cast<unsigned long long>(table_probes),
              table_probes == 0
                  ? 0.0
                  : 100.0 * static_cast<double>(bloom_negative) /
                        static_cast<double>(table_probes));

  // What did the device actually see? LSM ingest is sequential writes.
  uint64_t write_ios = 0, write_bytes = 0;
  for (const auto& r : trace.records()) {
    if (r.kind == sim::IoKind::kWrite) {
      ++write_ios;
      write_bytes += r.length;
    }
  }
  std::printf("device trace: %zu IOs total; %llu writes averaging %s each; "
              "%.0f%% of consecutive IOs strictly sequential\n",
              trace.size(), static_cast<unsigned long long>(write_ios),
              format_bytes(write_ios == 0 ? 0 : write_bytes / write_ios)
                  .c_str(),
              trace.sequential_fraction() * 100.0);
  std::printf(
      "write amplification so far: %.1fx the logical insert volume\n",
      static_cast<double>(disk.stats().bytes_written) /
          (static_cast<double>(kBurst) * kBursts * 124.0));

  // Replay the same IO pattern on the paper's SSD testbed: the what-if a
  // trace makes possible.
  sim::SsdDevice ssd(sim::testbed_ssd_profile());
  const sim::SimTime ssd_time = sim::replay_trace(ssd, trace);
  std::printf("replaying this trace on the 860 EVO profile: %.2fs vs %.2fs "
              "on the HDD (%.1fx)\n",
              sim::to_seconds(ssd_time), sim::to_seconds(io.now()),
              sim::to_seconds(io.now()) / sim::to_seconds(ssd_time));
  return 0;
}
