// perfbench driver: runs one named workload against the damkit libraries
// and prints its metrics. run.py builds and invokes it; by hand:
//
//   perfbench_driver --workload serve-uncached --seed 1 --seconds 20 --trace 0
//
// Output: one "detail {...}" line (raw host figures, digests, simulated
// latencies, per-op-type layer times) and, last, one result line
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// untraced phase, then a separate traced phase on a fresh set-up, and
// reports the per-layer metrics.
//
// Host drift: every timed phase is cut into kSegments segments with the
// reference kernel (ref_kernel.h) run before each and after the last.
// Each segment's wall time is scaled by RefKernel::kNominalMs over the
// mean of its two neighbouring kernel times, so a host that runs slow for
// a few seconds slows the kernel and the segment alike and the ratio
// cancels. Set-up repetitions are scaled the same way.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "harness/workload_runner.h"
#include "kv/engine.h"
#include "kv/op_apply.h"
#include "model.h"
#include "probe.h"
#include "ref_kernel.h"
#include "sim/profiles.h"
#include "sim/ssd.h"
#include "sim/trace.h"
#include "stats/metrics.h"
#include "wal/durable_engine.h"

namespace perfbench {
namespace {

namespace harness = damkit::harness;
namespace stats = damkit::stats;
namespace wal = damkit::wal;

constexpr int kSegments = 30;
constexpr int kMeasuredSetups = 5;  // after one untimed warm-up set-up
constexpr uint64_t kGenSampleEvery = 16;
constexpr uint64_t kFlushAttempts = 200;

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

uint64_t mix_seed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + tag * 0xD1B54A32D192ED03ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Exact percentile (nearest rank) of an unsorted sample.
double percentile(std::vector<uint64_t> v, double p) {
  if (v.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  const size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(idx),
                   v.end());
  return static_cast<double>(v[idx]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct WorkloadDef {
  const char* name;
  kv::EngineKind engine;
  uint64_t load_keys;
  kv::Distribution distribution;  // Zipfian is theta 0.99
  double get, put, erase, upsert, scan;  // op mix weights; scans are 50 rows
  bool durable;  // behind wal::make_durable
  bool serve;    // timed phase through WorkloadRunner::run_concurrent
  /// Ops of the mix applied after the bulk load so caches and levels are
  /// in steady state; 0 = one full ascending scan instead.
  uint64_t warmup_ops;
  /// Timed-phase ops per second of --seconds. The op count is fixed by
  /// (workload, --seconds) alone, never by host speed, so every simulated
  /// figure repeats exactly for a seed.
  double ops_per_second_budget;
};

kv::WorkloadSpec base_spec(const WorkloadDef& w) {
  kv::WorkloadSpec s;
  s.key_space = w.load_keys;
  s.key_bytes = 16;
  s.value_bytes = 100;
  s.distribution = w.distribution;
  s.zipf_theta = 0.99;
  s.get_weight = w.get;
  s.put_weight = w.put;
  s.delete_weight = w.erase;
  s.upsert_weight = w.upsert;
  s.scan_weight = w.scan;
  s.scan_length = 50;
  return s;
}

kv::EngineConfig engine_config() {
  kv::EngineConfig c;
  c.codec = damkit::blockdev::CodecKind::kIdentity;  // never from the env
  c.btree.node_bytes = 16 * 1024;
  c.btree.cache_bytes = 1024 * 1024;
  c.betree.node_bytes = 64 * 1024;
  c.betree.cache_bytes = 64 * 1024 * 1024;
  c.betree.flush_policy = damkit::betree::FlushPolicy::kFullestChild;
  c.lsm.memtable_bytes = 1024 * 1024;
  c.lsm.sstable_target_bytes = 2 * 1024 * 1024;
  c.lsm.style = damkit::lsm::CompactionStyle::kLeveled;
  return c;
}

constexpr auto kZipf = kv::Distribution::kZipfian;
constexpr auto kUniform = kv::Distribution::kUniform;
const WorkloadDef kWorkloads[] = {
    // name, engine, keys, distribution, get/put/erase/upsert/scan weights,
    // durable, serve, warm-up ops, timed ops per second of --seconds
    {"serve-uncached", kv::EngineKind::kBTree, 200'000, kZipf, 0.75, 0.20, 0,
     0.05, 0, false, true, 20'000, 120'000},
    {"scan-cached", kv::EngineKind::kBeTree, 100'000, kUniform, 0, 0.10, 0, 0,
     0.90, false, false, 0, 9'000},
    {"ingest-durable", kv::EngineKind::kLsm, 100'000, kUniform, 0.10, 0.80,
     0.05, 0.05, 0, true, false, 50'000, 250'000},
};

// ---------------------------------------------------------------------------
// Test bed: device, clock, engine, probes.
// ---------------------------------------------------------------------------

struct Testbed {
  sim::SsdConfig dev_cfg = sim::testbed_ssd_profile();
  std::unique_ptr<sim::SsdDevice> dev;
  std::unique_ptr<sim::IoContext> io;
  Probe* outer = nullptr;  // owned by dict
  Probe* inner = nullptr;  // durable only: the engine under the WAL
  std::unique_ptr<kv::Dictionary> dict;
};

std::unique_ptr<Testbed> make_testbed(const WorkloadDef& w) {
  auto t = std::make_unique<Testbed>();
  t->dev = std::make_unique<sim::SsdDevice>(t->dev_cfg);
  t->io = std::make_unique<sim::IoContext>(*t->dev);
  std::unique_ptr<kv::Dictionary> engine =
      kv::make_engine(w.engine, *t->dev, *t->io, engine_config());
  if (w.durable) {
    auto inner = std::make_unique<Probe>(std::move(engine), *t->io, false);
    t->inner = inner.get();
    wal::DurabilityConfig dc =
        wal::default_durability_config(t->dev->capacity_bytes());
    dc.wal.group_ops = 32;
    dc.checkpoint_wal_bytes = 16ULL << 20;
    engine = wal::make_durable(std::move(inner), *t->dev, *t->io, dc);
  }
  auto outer = std::make_unique<Probe>(std::move(engine), *t->io, true);
  t->outer = outer.get();
  t->dict = std::move(outer);
  return t;
}

/// Probe that brackets the engine itself (under the WAL when durable).
Probe& engine_probe(Testbed& t) {
  return t.inner != nullptr ? *t.inner : *t.outer;
}

void set_timing(Testbed& t, bool on) {
  t.outer->set_timing(on);
  if (t.inner != nullptr) t.inner->set_timing(on);
}

// ---------------------------------------------------------------------------
// Driving ops.
// ---------------------------------------------------------------------------

struct LoopTimes {
  uint64_t gen_ns = 0;
  uint64_t gen_samples = 0;
  uint64_t apply_ns = 0;  // apply_op calls, Dictionary time included
  uint64_t ops = 0;
};

/// Apply ops [first, first+count) of `gen`'s stream through kv::apply_op,
/// the library's own per-op path, on the try_* surface.
void drive(Testbed& t, kv::OpGenerator& gen, uint64_t first, uint64_t count,
           bool timing, uint64_t* lib_digest, kv::ApplyCounters* counters,
           kv::ApplyScratch* scratch, LoopTimes* times) {
  const kv::ApplyOptions fallible{true};
  const kv::WorkloadSpec& spec = gen.spec();
  for (uint64_t i = first; i < first + count; ++i) {
    if (!timing) {
      const kv::Op op = gen.next();
      kv::apply_op(*t.dict, op, i, spec, fallible, lib_digest, counters,
                   scratch);
      continue;
    }
    kv::Op op;
    if (i % kGenSampleEvery == 0) {
      const uint64_t g0 = now_ns();
      op = gen.next();
      times->gen_ns += now_ns() - g0;
      ++times->gen_samples;
    } else {
      op = gen.next();
    }
    const uint64_t a0 = now_ns();
    kv::apply_op(*t.dict, op, i, spec, fallible, lib_digest, counters,
                 scratch);
    times->apply_ns += now_ns() - a0;
    ++times->ops;
  }
}

/// The op streams of one run, in application order (the model replays
/// exactly these).
struct Plan {
  kv::WorkloadSpec spec;
  Stream warmup;                // ops == 0: full-scan warm-up
  std::vector<Stream> timed;    // one stream, or one per serve segment
  uint64_t timed_ops = 0;
};

Plan make_plan(const WorkloadDef& w, uint64_t seed, double seconds) {
  Plan p;
  p.spec = base_spec(w);
  p.warmup.spec = p.spec;
  p.warmup.spec.seed = mix_seed(seed, 1);
  p.warmup.ops = w.warmup_ops;
  p.timed_ops = std::max<uint64_t>(
      kSegments * 50,
      static_cast<uint64_t>(std::llround(seconds * w.ops_per_second_budget)));
  if (w.serve) {
    // run_concurrent regenerates its stream from the spec, so each
    // segment is its own stream with its own seed.
    for (int s = 0; s < kSegments; ++s) {
      Stream st;
      st.spec = p.spec;
      st.spec.seed = mix_seed(seed, 100 + static_cast<uint64_t>(s));
      st.ops = p.timed_ops * static_cast<uint64_t>(s + 1) / kSegments -
               p.timed_ops * static_cast<uint64_t>(s) / kSegments;
      p.timed.push_back(st);
    }
  } else {
    Stream st;
    st.spec = p.spec;
    st.spec.seed = mix_seed(seed, 2);
    st.ops = p.timed_ops;
    p.timed.push_back(st);
  }
  return p;
}

// ---------------------------------------------------------------------------
// Set-up: engine construction, bulk load, warm-up.
// ---------------------------------------------------------------------------

struct SetupTimes {
  double bulk_s = 0;  // construction + bulk load
  double warm_s = 0;
  sim::SimTime sim = 0;
  uint64_t failed = 0;
  LoopTimes loop;              // warm-up loop (timing on)
  uint64_t loop_dict_ns = 0;   // Dictionary time inside that loop
};

std::unique_ptr<Testbed> set_up(const WorkloadDef& w, const Plan& plan,
                                bool timing, sim::IoTrace* warm_trace,
                                SetupTimes* out) {
  const uint64_t t0 = now_ns();
  std::unique_ptr<Testbed> t = make_testbed(w);
  harness::WorkloadRunner runner(*t->dict, *t->io);
  runner.bulk_load(w.load_keys, plan.spec);
  const uint64_t t1 = now_ns();
  if (plan.warmup.ops == 0) {
    auto rows = t->dict->try_range_scan(std::string(), w.load_keys);
    if (!rows.ok() || rows->size() != w.load_keys) ++out->failed;
  } else {
    kv::OpGenerator gen(plan.warmup.spec);
    uint64_t digest = kv::kFnvOffsetBasis;
    kv::ApplyCounters counters;
    kv::ApplyScratch scratch;
    set_timing(*t, timing);
    const uint64_t dict0 = t->outer->host_ns_total();
    if (warm_trace != nullptr) t->dev->set_trace(warm_trace);
    drive(*t, gen, 0, plan.warmup.ops, timing, &digest, &counters, &scratch,
          &out->loop);
    t->dev->set_trace(nullptr);
    out->loop_dict_ns = t->outer->host_ns_total() - dict0;
    set_timing(*t, false);
    out->failed += counters.failed_ops;
  }
  const uint64_t t2 = now_ns();
  out->bulk_s = static_cast<double>(t1 - t0) / 1e9;
  out->warm_s = static_cast<double>(t2 - t1) / 1e9;
  out->sim = t->io->now();
  return t;
}

// ---------------------------------------------------------------------------
// The timed phase.
// ---------------------------------------------------------------------------

struct Phase {
  uint64_t ops = 0;
  uint64_t failed = 0;
  double wall_s = 0;  // op segments, end-of-run flush included
  double norm_s = 0;  // the same, scaled by the reference kernel
  std::vector<double> kernel_ms;
  uint64_t lib_digest = kv::kFnvOffsetBasis;  // the library's own digest
  sim::SimTime sim_time = 0;  // serve: replay makespans + final flush
  sim::SimTime serial_sim_time = 0;  // the serving device's clock
  sim::DeviceStats dev0, dev1;
  damkit::blockdev::RetryCounters retry0, retry1;
  uint64_t returned0 = 0, returned1 = 0;
  uint64_t mutated0 = 0, mutated1 = 0;
  stats::MetricsRegistry reg0, reg1;
  // serve
  uint64_t batches = 0, batch_ios = 0, max_lane_depth = 0;
  damkit::Histogram replay_latency;
  double serve_wall_s = 0;
  double producer_cpu_s = 0;
  long minor_faults = 0;
  // traced only
  LoopTimes loop;
  uint64_t outer_ns[kKinds] = {};
  uint64_t engine_ns[kKinds] = {};
  uint64_t engine_calls[kKinds] = {};
};

uint64_t sum_kinds(const uint64_t (&ns)[kKinds], bool with_other) {
  uint64_t t = 0;
  for (int k = 0; k < kKinds; ++k) {
    if (k != kOther || with_other) t += ns[k];
  }
  return t;
}

Phase run_phase(const WorkloadDef& w, const Plan& plan, Testbed& t,
                RefKernel& kernel, bool traced, sim::IoTrace* trace) {
  Phase ph;
  Probe& eng = engine_probe(t);
  ph.dev0 = t.dev->stats();
  ph.retry0 = t.dict->retry_counters();
  ph.returned0 = t.outer->returned_bytes();
  ph.mutated0 = t.outer->mutated_bytes();
  t.dict->export_metrics(ph.reg0, "");
  for (int k = 0; k < kKinds; ++k) {
    ph.outer_ns[k] = t.outer->host_ns(k);
    ph.engine_ns[k] = eng.host_ns(k);
    ph.engine_calls[k] = eng.calls(k);
  }
  const sim::SimTime sim0 = t.io->now();
  set_timing(t, traced);
  t.outer->set_recording(true, plan.timed_ops);
  const long faults0 = minor_faults();

  kv::ApplyCounters counters;
  kv::ApplyScratch scratch;
  std::unique_ptr<kv::OpGenerator> gen;
  if (!w.serve) {
    gen = std::make_unique<kv::OpGenerator>(plan.timed[0].spec);
    if (trace != nullptr) t.dev->set_trace(trace);
  }
  harness::WorkloadRunner runner(*t.dict, *t.io);
  harness::ConcurrentRunOptions copts;
  copts.clients = 2;
  copts.inflight = 4;
  copts.fallible = true;
  copts.flush_at_end = false;  // the final flush is charged below
  const sim::SsdConfig cfg = t.dev_cfg;
  copts.replay_device_factory = [cfg]() -> std::unique_ptr<sim::Device> {
    return std::make_unique<sim::SsdDevice>(cfg);
  };
  copts.lanes = static_cast<size_t>(cfg.total_dies());
  copts.lane_of = [cfg](uint64_t offset) {
    return static_cast<size_t>(cfg.die_of(offset));
  };

  double k_prev = kernel.run_ms();
  ph.kernel_ms.push_back(k_prev);
  uint64_t done = 0;
  for (int s = 0; s < kSegments; ++s) {
    const uint64_t s0 = now_ns();
    if (w.serve) {
      const Stream& st = plan.timed[static_cast<size_t>(s)];
      const double cpu0 = process_cpu_s();
      const double main0 = thread_cpu_s();
      harness::ConcurrentRunResult r =
          runner.run_concurrent(st.spec, st.ops, copts);
      ph.producer_cpu_s += (process_cpu_s() - cpu0) - (thread_cpu_s() - main0);
      ph.serve_wall_s += static_cast<double>(now_ns() - s0) / 1e9;
      ph.lib_digest = hash_word(ph.lib_digest, r.base.digest);
      ph.failed += r.base.failed_ops;
      ph.sim_time += r.concurrent_elapsed;
      ph.batches += r.batches;
      ph.batch_ios += r.batch_ios;
      ph.max_lane_depth = std::max(ph.max_lane_depth, r.max_lane_depth);
      ph.replay_latency.merge(r.latency);
      done += st.ops;
    } else {
      const uint64_t end =
          plan.timed_ops * static_cast<uint64_t>(s + 1) / kSegments;
      drive(t, *gen, done, end - done, traced, &ph.lib_digest, &counters,
            &scratch, &ph.loop);
      done = end;
    }
    if (s + 1 == kSegments) {
      // End-of-run write-back, charged to the phase on both clocks.
      const sim::SimTime f0 = t.io->now();
      if (!harness::checkpoint_with_retries(*t.dict, kFlushAttempts).ok()) {
        ++ph.failed;
      }
      if (w.serve) ph.sim_time += t.io->now() - f0;
    }
    const double seg_s = static_cast<double>(now_ns() - s0) / 1e9;
    const double k_next = kernel.run_ms();
    ph.kernel_ms.push_back(k_next);
    ph.wall_s += seg_s;
    ph.norm_s += seg_s * RefKernel::kNominalMs / (0.5 * (k_prev + k_next));
    k_prev = k_next;
  }
  t.dev->set_trace(nullptr);
  t.outer->set_recording(false);
  set_timing(t, false);
  ph.minor_faults = minor_faults() - faults0;

  ph.ops = done;
  ph.failed += counters.failed_ops;
  ph.serial_sim_time = t.io->now() - sim0;
  if (!w.serve) ph.sim_time = ph.serial_sim_time;
  ph.dev1 = t.dev->stats();
  ph.retry1 = t.dict->retry_counters();
  ph.returned1 = t.outer->returned_bytes();
  ph.mutated1 = t.outer->mutated_bytes();
  t.dict->export_metrics(ph.reg1, "");
  for (int k = 0; k < kKinds; ++k) {
    ph.outer_ns[k] = t.outer->host_ns(k) - ph.outer_ns[k];
    ph.engine_ns[k] = eng.host_ns(k) - ph.engine_ns[k];
    ph.engine_calls[k] = eng.calls(k) - ph.engine_calls[k];
  }
  return ph;
}

/// Host nanoseconds per IO of the device timing model: the phase's IO
/// trace replayed on fresh devices until at least 50 ms have been timed.
double replay_ns_per_io(const sim::SsdConfig& cfg, const sim::IoTrace& trace) {
  if (trace.empty()) return 0.0;
  uint64_t ns = 0;
  uint64_t ios = 0;
  for (int rep = 0; rep < 200 && ns < 50'000'000; ++rep) {
    sim::SsdDevice dev(cfg);
    const uint64_t t0 = now_ns();
    sim::replay_trace(dev, trace);
    ns += now_ns() - t0;
    ios += trace.size();
  }
  return static_cast<double>(ns) / static_cast<double>(ios);
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

/// Name, value, unit; printed in order as a JSON object.
using Metrics = std::vector<std::tuple<std::string, double, std::string>>;

std::string num(double v) {
  if (!std::isfinite(v)) die("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const Metrics& ms) {
  std::string s = "{";
  for (const auto& [name, value, unit] : ms) {
    if (s.size() > 1) s += ", ";
    s += "\"" + name + "\": {\"value\": " + num(value) + ", \"unit\": \"" +
         unit + "\"}";
  }
  return s + "}";
}

/// Plain {name: value} object for the detail line.
std::string values_json(const std::vector<std::pair<std::string, double>>& vs) {
  std::string s = "{";
  for (const auto& [name, value] : vs) {
    if (s.size() > 1) s += ", ";
    s += "\"" + name + "\": " + num(value);
  }
  return s + "}";
}

/// Counter delta over the phase. `exported` = this engine exports it, so
/// a missing name means the library renamed it and the figure would be
/// wrong; other engines' counters read as zero.
double delta(const Phase& ph, const std::string& name, bool exported) {
  if (!exported) return 0.0;
  if (!ph.reg1.has_counter(name)) {
    die("library no longer exports counter '" + name + "'");
  }
  return static_cast<double>(ph.reg1.counter(name) - ph.reg0.counter(name));
}

/// The simulated figures of one phase; a seed reproduces them bit for bit,
/// traced or not (the self-test compares these strings).
std::string sim_signature(const Phase& ph, uint64_t probe_digest) {
  const auto u = [](uint64_t v) { return std::to_string(v); };
  return "{\"sim_time_ns\": " + u(ph.sim_time) +
         ", \"serial_sim_ns\": " + u(ph.serial_sim_time) +
         ", \"reads\": " + u(ph.dev1.reads - ph.dev0.reads) +
         ", \"writes\": " + u(ph.dev1.writes - ph.dev0.writes) +
         ", \"bytes_read\": " + u(ph.dev1.bytes_read - ph.dev0.bytes_read) +
         ", \"bytes_written\": " +
         u(ph.dev1.bytes_written - ph.dev0.bytes_written) +
         ", \"busy_ns\": " + u(ph.dev1.busy_time - ph.dev0.busy_time) +
         ", \"queue_wait_ns\": " + u(ph.dev1.queue_wait - ph.dev0.queue_wait) +
         ", \"lib_digest\": " + u(ph.lib_digest) +
         ", \"digest\": " + u(probe_digest) + "}";
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; i += 2) {
    const std::string a = argv[i];
    if (i + 1 >= argc) die("missing value for " + a);
    const std::string v = argv[i + 1];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else {
      die("unknown flag " + a);
    }
  }
  if (!(o.seconds > 0)) die("--seconds must be positive");
  return o;
}

int run(const Options& o) {
  const WorkloadDef* w = nullptr;
  for (const WorkloadDef& d : kWorkloads) {
    if (o.workload == d.name) w = &d;
  }
  if (w == nullptr) die("unknown workload '" + o.workload + "'");
  const Plan plan = make_plan(*w, o.seed, o.seconds);
  RefKernel kernel;
  kernel.run_ms();  // fault in its tables before anything is timed

  // Set-up, repeated. The first also pays the process's first-touch page
  // faults and is not counted; the last test bed is the one the run uses.
  std::vector<double> setup_raw, setup_norm, bulk_s, warm_s;
  std::unique_ptr<Testbed> bed;
  SetupTimes st;
  double k_prev = kernel.run_ms();
  for (int r = 0; r <= kMeasuredSetups; ++r) {
    bed.reset();
    st = SetupTimes{};
    bed = set_up(*w, plan, false, nullptr, &st);
    const double k_next = kernel.run_ms();
    if (r > 0) {
      const double raw = st.bulk_s + st.warm_s;
      setup_raw.push_back(raw);
      setup_norm.push_back(raw * RefKernel::kNominalMs /
                           (0.5 * (k_prev + k_next)));
      bulk_s.push_back(st.bulk_s);
      warm_s.push_back(st.warm_s);
    }
    k_prev = k_next;
  }

  const Phase ph = run_phase(*w, plan, *bed, kernel, false, nullptr);
  const double rss = peak_rss_mib();
  const uint64_t digest = bed->outer->digest();
  const std::vector<uint64_t> sim_lat = bed->outer->sim_latencies();
  const uint64_t resident = bed->dev->resident_host_bytes();
  bed.reset();

  // Traced phase: a fresh set-up with every probe timing.
  SetupTimes tst;
  Phase tr;
  sim::IoTrace io_trace;
  uint64_t traced_digest = 0;
  if (o.trace) {
    std::unique_ptr<Testbed> tb =
        set_up(*w, plan, true, w->serve ? &io_trace : nullptr, &tst);
    tr = run_phase(*w, plan, *tb, kernel, true,
                   w->serve ? nullptr : &io_trace);
    traced_digest = tb->outer->digest();
  }

  // Result check: the reference model replays the same streams.
  Model model(plan.spec, w->load_keys);
  if (plan.warmup.ops == 0) {
    model.scan_all();
  } else {
    model.apply(plan.warmup);
  }
  for (const Stream& s : plan.timed) model.apply(s);
  bool correct = model.digest() == digest;
  if (!correct) std::fprintf(stderr, "perfbench: digest differs from model\n");
  const std::string sig = sim_signature(ph, digest);
  std::string sims = "\"sim\": " + sig;
  if (o.trace) {
    const std::string traced_sig = sim_signature(tr, traced_digest);
    sims += ", \"traced_sim\": " + traced_sig;
    if (traced_sig != sig) {
      std::fprintf(stderr, "perfbench: traced run changed simulated results\n");
      correct = false;
    }
  }
  const uint64_t failed = ph.failed + st.failed + tr.failed + tst.failed;

  const double ops = static_cast<double>(ph.ops);
  const double bytes_read =
      static_cast<double>(ph.dev1.bytes_read - ph.dev0.bytes_read);
  const double bytes_written =
      static_cast<double>(ph.dev1.bytes_written - ph.dev0.bytes_written);
  const double returned = static_cast<double>(ph.returned1 - ph.returned0);
  const double mutated = static_cast<double>(ph.mutated1 - ph.mutated0);
  std::vector<double> all_kernel = ph.kernel_ms;
  all_kernel.insert(all_kernel.end(), tr.kernel_ms.begin(),
                    tr.kernel_ms.end());

  std::vector<std::pair<std::string, double>> detail = {
      {"seed", static_cast<double>(o.seed)},
      {"ops", ops},
      {"run_ops_per_s_raw", ops / ph.wall_s},
      {"setup_s_raw", median(setup_raw)},
      {"setup_s_norm_min", *std::min_element(setup_norm.begin(),
                                             setup_norm.end())},
      {"setup_s_norm_max", *std::max_element(setup_norm.begin(),
                                             setup_norm.end())},
      {"phase_wall_s", ph.wall_s},
      {"phase_minor_faults", static_cast<double>(ph.minor_faults)},
      {"kernel_ms_median", median(ph.kernel_ms)},
      {"kernel_ms_min", *std::min_element(ph.kernel_ms.begin(),
                                          ph.kernel_ms.end())},
      {"kernel_ms_max", *std::max_element(ph.kernel_ms.begin(),
                                          ph.kernel_ms.end())},
      {"sim_op_p50_us", percentile(sim_lat, 50.0) / 1e3},
      {"sim_op_p999_us", percentile(sim_lat, 99.9) / 1e3},
      {"sim_op_samples", static_cast<double>(sim_lat.size())},
      {"read_amp", ratio(bytes_read, returned)},
      // Printing the kernel's checksum keeps its work from being optimized
      // away.
      {"kernel_checksum", static_cast<double>(kernel.sink() % 1000)},
  };
  if (w->serve) {
    detail.push_back({"replay_op_p50_us",
                      static_cast<double>(ph.replay_latency.percentile(50)) /
                          1e3});
    detail.push_back(
        {"replay_op_p999_us",
         static_cast<double>(ph.replay_latency.percentile(99.9)) / 1e3});
  }

  Metrics out;
  if (!o.trace) {
    out = {
        {"run_ops_per_s", ops / ph.norm_s, "1/s"},
        {"setup_s", median(setup_norm), "s"},
        {"peak_rss_mib", rss, "MiB"},
        {"sim_ops_per_s", ops / sim::to_seconds(ph.sim_time), "1/s"},
        {"write_amp", ratio(bytes_written, mutated), "ratio"},
        {"space_amp",
         static_cast<double>(resident) /
             static_cast<double>(model.live_bytes()),
         "ratio"},
    };
  } else {
    const bool btree = w->engine == kv::EngineKind::kBTree;
    const bool betree = w->engine == kv::EngineKind::kBeTree;
    const bool lsm = w->engine == kv::EngineKind::kLsm;
    const bool pool = btree || betree;
    const double wall = tr.wall_s;

    // kv layer. On serve-uncached the serve layer generates and applies
    // ops itself, so these come from the traced warm-up, which runs the
    // same mix through the same apply_op loop.
    const LoopTimes& lt = w->serve ? tst.loop : tr.loop;
    const double loop_dict_ns =
        w->serve ? static_cast<double>(tst.loop_dict_ns)
                 : static_cast<double>(sum_kinds(tr.outer_ns, false));
    const double gen_ns = ratio(static_cast<double>(lt.gen_ns),
                                static_cast<double>(lt.gen_samples));
    const double apply_self_ns =
        ratio(static_cast<double>(lt.apply_ns) - loop_dict_ns,
              static_cast<double>(lt.ops));

    // engine layer: time inside the engine probe (under the WAL when
    // durable), per call of each kind.
    const auto per_call = [&](int k) {
      return ratio(static_cast<double>(tr.engine_ns[k]),
                   static_cast<double>(tr.engine_calls[k]));
    };
    const int read_kind = w->scan > 0 ? kScan : kGet;
    const double write_calls = static_cast<double>(
        tr.engine_calls[kPut] + tr.engine_calls[kUpsert] +
        tr.engine_calls[kErase]);
    const double write_ns = ratio(
        static_cast<double>(tr.engine_ns[kPut] + tr.engine_ns[kUpsert] +
                            tr.engine_ns[kErase]),
        write_calls);
    const double engine_total = static_cast<double>(sum_kinds(tr.engine_ns, true));
    const double outer_total = static_cast<double>(sum_kinds(tr.outer_ns, true));
    const double outer_data = static_cast<double>(sum_kinds(tr.outer_ns, false));
    const double wal_self_s = w->durable ? (outer_total - engine_total) / 1e9 : 0;
    const double mutations = static_cast<double>(
        tr.engine_calls[kPut] + tr.engine_calls[kUpsert] +
        tr.engine_calls[kErase]);
    const double serve_self_s =
        w->serve ? tr.serve_wall_s - outer_data / 1e9 : 0.0;

    const double hits = delta(tr, "cache.hits", pool);
    const double misses = delta(tr, "cache.misses", pool);
    const double ios = static_cast<double>(
        (tr.dev1.reads - tr.dev0.reads) + (tr.dev1.writes - tr.dev0.writes));
    const double commit_blocks = delta(tr, "wal.commit_blocks", w->durable);

    detail.push_back({"engine.get_ns", per_call(kGet)});
    detail.push_back({"engine.put_ns", per_call(kPut)});
    detail.push_back({"engine.upsert_ns", per_call(kUpsert)});
    detail.push_back({"engine.erase_ns", per_call(kErase)});
    detail.push_back({"engine.scan_ns", per_call(kScan)});
    detail.push_back({"engine.other_ns", per_call(kOther)});
    detail.push_back({"wal.self_ns_per_mutation",
                      ratio(wal_self_s * 1e9, mutations)});
    detail.push_back({"serve.self_s", serve_self_s});
    detail.push_back({"serve.producer_cpu_s", tr.producer_cpu_s});
    detail.push_back({"traced_run_ops_per_s_raw",
                      static_cast<double>(tr.ops) / tr.wall_s});

    out = {
        {"trace.overhead", (tr.norm_s / static_cast<double>(tr.ops)) /
                               (ph.norm_s / ops),
         "ratio"},
        {"kv.gen_ns_per_op", gen_ns, "ns"},
        {"kv.apply_self_ns_per_op", apply_self_ns, "ns"},
        {"kv.share", (gen_ns + apply_self_ns) * ops / (wall * 1e9), "ratio"},
        {"engine.read_ns", per_call(read_kind), "ns"},
        {"engine.write_ns", write_ns, "ns"},
        {"engine.share", engine_total / (wall * 1e9), "ratio"},
        {"btree.splits", delta(tr, "splits", btree), "count"},
        {"betree.flushes", delta(tr, "flushes", betree), "count"},
        {"betree.messages_moved", delta(tr, "messages_moved", betree),
         "count"},
        {"lsm.memtable_flushes", delta(tr, "memtable_flushes", lsm), "count"},
        {"lsm.compactions", delta(tr, "compactions", lsm), "count"},
        {"lsm.compaction_bytes_out_per_op",
         delta(tr, "compaction_bytes_out", lsm) / ops, "B/op"},
        {"lsm.bloom_skip_rate",
         ratio(delta(tr, "bloom_negative", lsm),
               delta(tr, "table_probes", lsm)),
         "ratio"},
        {"cache.hit_rate", ratio(hits, hits + misses), "ratio"},
        {"cache.misses_per_op", misses / ops, "1/op"},
        {"cache.evictions_per_op", delta(tr, "cache.evictions", pool) / ops,
         "1/op"},
        {"cache.dirty_writebacks_per_op",
         delta(tr, "cache.dirty_writebacks", pool) / ops, "1/op"},
        {"blockdev.node_reads_per_op", delta(tr, "store.node_reads", pool) / ops,
         "1/op"},
        {"blockdev.node_writes_per_op",
         delta(tr, "store.node_writes", pool) / ops, "1/op"},
        {"blockdev.io_retries",
         static_cast<double>(tr.retry1.retries - tr.retry0.retries), "count"},
        {"blockdev.io_give_ups",
         static_cast<double>(tr.retry1.give_ups - tr.retry0.give_ups),
         "count"},
        {"sim.ios_per_op", ios / ops, "1/op"},
        {"sim.busy_us_per_op",
         static_cast<double>(tr.dev1.busy_time - tr.dev0.busy_time) / 1e3 /
             ops,
         "us"},
        {"sim.setup_share",
         static_cast<double>(tst.sim) /
             static_cast<double>(tst.sim + tr.serial_sim_time),
         "ratio"},
        {"sim.host_ns_per_io", replay_ns_per_io(sim::testbed_ssd_profile(),
                                                io_trace),
         "ns"},
        {"sim.read_amp", ratio(bytes_read, returned), "ratio"},
        {"wal.commits_per_kop", delta(tr, "wal.commits", w->durable) / ops * 1e3,
         "1/kop"},
        {"wal.commit_fill",
         ratio(delta(tr, "wal.committed_bytes", w->durable),
               commit_blocks * 4096.0),
         "ratio"},
        {"wal.checkpoints", delta(tr, "wal.checkpoints", w->durable), "count"},
        {"wal.snapshot_bytes_per_op",
         delta(tr, "snapshot.written_bytes", w->durable) / ops, "B/op"},
        {"wal.share", wal_self_s / wall, "ratio"},
        {"serve.self_share", serve_self_s / wall, "ratio"},
        {"serve.producer_cpu_share", tr.producer_cpu_s / wall, "ratio"},
        {"serve.batch_ios_mean",
         ratio(static_cast<double>(tr.batch_ios),
               static_cast<double>(tr.batches)),
         "1/batch"},
        {"serve.max_lane_depth", static_cast<double>(tr.max_lane_depth),
         "count"},
        {"setup.bulk_load_s", median(bulk_s), "s"},
        {"setup.warmup_s", median(warm_s), "s"},
        {"host.ref_kernel_ms", median(all_kernel), "ms"},
    };
  }

  std::printf("detail {\"workload\": \"%s\", \"values\": %s, %s}\n", w->name,
              values_json(detail).c_str(), sims.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct && failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(ph.ops),
      static_cast<unsigned long long>(failed), metrics_json(out).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse(argc, argv));
}

