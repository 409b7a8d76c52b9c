#include "harness/workload_runner.h"

#include <map>
#include <set>
#include <utility>

#include "kv/slice.h"
#include "sim/trace.h"
#include "util/rng.h"
#include "util/table.h"

namespace damkit::harness {

void WorkloadRunner::bulk_load(uint64_t items, const kv::WorkloadSpec& spec) {
  dict_->bulk_load(items, [&spec](uint64_t i) {
    kv::BulkItem item = kv::bulk_item(i, spec);
    return std::make_pair(std::move(item.key), std::move(item.value));
  });
}

WorkloadRunResult WorkloadRunner::apply_ops(const kv::WorkloadSpec& spec,
                                            uint64_t ops, bool fallible,
                                            sim::IoTrace* trace,
                                            std::vector<size_t>* op_end) {
  WorkloadRunResult result;
  const sim::SimTime before = io_->now();
  if (trace != nullptr) {
    op_end->reserve(ops);
    io_->device().set_trace(trace);
  }
  kv::OpGenerator gen(spec);
  const kv::ApplyOptions apply_options{fallible};
  kv::ApplyScratch scratch;  // key/value buffers reused across all ops
  for (uint64_t i = 0; i < ops; ++i) {
    kv::apply_op(*dict_, gen.next(), i, spec, apply_options, &result.digest,
                 &result, &scratch);
    if (trace != nullptr) op_end->push_back(trace->size());
  }
  if (trace != nullptr) io_->device().set_trace(nullptr);
  result.sim_elapsed = io_->now() - before;
  return result;
}

void WorkloadRunner::write_back(const WorkloadRunOptions& options,
                                WorkloadRunResult* result) {
  if (!options.flush_at_end) return;
  const sim::SimTime before = io_->now();
  if (options.fallible) {
    if (!checkpoint_with_retries(*dict_, 200).ok()) ++result->failed_ops;
  } else {
    dict_->flush();
  }
  result->sim_elapsed += io_->now() - before;
}

WorkloadRunResult WorkloadRunner::run(const kv::WorkloadSpec& spec,
                                      uint64_t ops,
                                      const WorkloadRunOptions& options) {
  WorkloadRunResult result =
      apply_ops(spec, ops, options.fallible, nullptr, nullptr);
  write_back(options, &result);
  return result;
}

ConcurrentRunResult WorkloadRunner::run_concurrent(
    const kv::WorkloadSpec& spec, uint64_t ops,
    const ConcurrentRunOptions& options) {
  ConcurrentRunResult result;
  const bool replayed = options.replay_device_factory != nullptr;
  std::vector<size_t> op_end;
  result.base = apply_ops(spec, ops, options.fallible,
                          replayed ? &result.trace : nullptr, &op_end);
  const sim::SimTime serial = result.base.sim_elapsed;
  write_back(options, &result.base);

  if (replayed) {
    static_cast<serve::ReplayTimeline&>(result) =
        serve::replay(result.trace.records(), op_end, options);
  } else {
    result.concurrent_elapsed = serial;
  }
  if (result.concurrent_elapsed != 0) {
    result.speedup = static_cast<double>(serial) /
                     static_cast<double>(result.concurrent_elapsed);
  }
  const double secs = sim::to_seconds(result.concurrent_elapsed);
  if (secs > 0.0) {
    result.throughput_ops_per_sec = static_cast<double>(ops) / secs;
  }
  return result;
}

void ConcurrentRunResult::export_metrics(stats::MetricsRegistry& reg,
                                         std::string_view prefix) const {
  const std::string p(prefix);
  reg.add(p + "ops", base.ops());
  reg.add(p + "failed_ops", base.failed_ops);
  reg.add(p + "batches", batches);
  reg.add(p + "batch_ios", batch_ios);
  reg.set(p + "serial_seconds", sim::to_seconds(base.sim_elapsed));
  reg.set(p + "concurrent_seconds", sim::to_seconds(concurrent_elapsed));
  reg.set(p + "speedup", speedup);
  reg.set(p + "throughput_ops_per_sec", throughput_ops_per_sec);
  reg.set(p + "max_lane_depth", static_cast<double>(max_lane_depth));
  for (size_t i = 0; i < lane_ios.size(); ++i) {
    reg.add(p + strfmt("lane.%zu.ios", i), lane_ios[i]);
  }
  stats::export_histogram_summary(reg, p + "latency_ns", latency);
}

Status checkpoint_with_retries(kv::Dictionary& dict, int max_attempts) {
  Status s = dict.checkpoint();
  for (int tries = 0; !s.ok() && tries < max_attempts; ++tries) {
    s = dict.checkpoint();
  }
  return s;
}

namespace {

// Extra checkpoint draws, and extra reads per key in the verify sweep,
// before the soak reports a violation.
constexpr int kSoakCheckpointAttempts = 200;
constexpr int kSoakVerifyReadAttempts = 200;

}  // namespace

SoakReport run_fault_soak(kv::Dictionary& dict, const SoakSpec& spec) {
  std::map<std::string, std::string> expected;
  std::set<std::string> uncertain;  // failed mutation: old-or-new state
  SoakReport report;
  Rng rng(spec.seed);

  for (uint64_t i = 0; i < spec.ops; ++i) {
    const std::string key = kv::encode_key(rng.uniform(spec.key_space));
    const uint64_t dice = rng.uniform(10);
    if (dice < 6) {
      const std::string value = kv::make_value(rng.next(), spec.value_bytes);
      if (dict.try_put(key, value).ok()) {
        expected[key] = value;
        uncertain.erase(key);
        ++report.ok_ops;
      } else {
        uncertain.insert(key);
        ++report.failed_ops;
      }
    } else if (dice < 8) {
      if (dict.try_erase(key).ok()) {
        expected.erase(key);
        uncertain.erase(key);
        ++report.ok_ops;
      } else {
        uncertain.insert(key);
        ++report.failed_ops;
      }
    } else {
      StatusOr<std::optional<std::string>> got = dict.try_get(key);
      if (!got.ok()) {
        ++report.failed_ops;
      } else {
        ++report.ok_ops;
        if (uncertain.count(key) == 0) {
          const auto want = expected.find(key);
          if (want == expected.end()) {
            if (got->has_value()) {
              report.violations.push_back("phantom key " + key);
            }
          } else if (!got->has_value()) {
            report.violations.push_back("lost key " + key);
          } else if (**got != want->second) {
            report.violations.push_back("wrong value for key " + key);
          }
        }
      }
    }
  }

  // The checkpoint must eventually land (each attempt consumes fresh
  // fault draws, so a give-up does not repeat forever).
  const Status checkpoint =
      checkpoint_with_retries(dict, kSoakCheckpointAttempts);
  report.checkpoint_ok = checkpoint.ok();
  if (!checkpoint.ok()) {
    report.violations.push_back("checkpoint never landed: " +
                                std::string(checkpoint.message()));
  }

  // Full verification sweep: every op that reported success is durable.
  // Reads can still fault; retry each key until the dictionary answers.
  for (const auto& [key, value] : expected) {
    if (uncertain.count(key) != 0) continue;
    StatusOr<std::optional<std::string>> got = dict.try_get(key);
    for (int tries = 0; !got.ok() && tries < kSoakVerifyReadAttempts;
         ++tries) {
      got = dict.try_get(key);
    }
    if (!got.ok()) {
      report.violations.push_back("verify read kept failing for " + key);
    } else if (!got->has_value()) {
      report.violations.push_back("lost key " + key);
    } else if (**got != value) {
      report.violations.push_back("wrong value for key " + key);
    }
  }
  return report;
}

}  // namespace damkit::harness
