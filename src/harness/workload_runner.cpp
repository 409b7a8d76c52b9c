#include "harness/workload_runner.h"

#include <map>
#include <set>
#include <utility>

#include "kv/op_apply.h"
#include "kv/slice.h"
#include "serve/scheduler.h"
#include "util/rng.h"
#include "util/table.h"

namespace damkit::harness {

void WorkloadRunner::bulk_load(uint64_t items, const kv::WorkloadSpec& spec) {
  dict_->bulk_load(items, [&spec](uint64_t i) {
    kv::BulkItem item = kv::bulk_item(i, spec);
    return std::make_pair(std::move(item.key), std::move(item.value));
  });
}

WorkloadRunResult WorkloadRunner::run(const kv::WorkloadSpec& spec,
                                      uint64_t ops,
                                      const WorkloadRunOptions& options) {
  WorkloadRunResult result;
  kv::OpGenerator gen(spec);
  const sim::SimTime before = io_->now();

  kv::ApplyCounters counters;
  const kv::ApplyOptions apply_options{options.fallible};
  kv::ApplyScratch scratch;  // key/value buffers reused across all ops
  for (uint64_t i = 0; i < ops; ++i) {
    const kv::Op op = gen.next();
    kv::apply_op(*dict_, op, i, spec, apply_options, &result.digest,
                 &counters, &scratch);
  }
  result.puts = counters.puts;
  result.gets = counters.gets;
  result.erases = counters.erases;
  result.scans = counters.scans;
  result.upserts = counters.upserts;
  result.get_hits = counters.get_hits;
  result.failed_ops = counters.failed_ops;

  if (options.flush_at_end) {
    if (options.fallible) {
      if (!checkpoint_with_retries(*dict_, 200).ok()) ++result.failed_ops;
    } else {
      dict_->flush();
    }
  }
  result.sim_elapsed = io_->now() - before;
  return result;
}

ConcurrentRunResult WorkloadRunner::run_concurrent(
    const kv::WorkloadSpec& spec, uint64_t ops,
    const ConcurrentRunOptions& options) {
  serve::ServeConfig config;
  config.clients = options.clients;
  config.inflight = options.inflight;
  config.fallible = options.fallible;
  config.replay_device_factory = options.replay_device_factory;
  config.lane_of = options.lane_of;
  config.lanes = options.lanes;

  const sim::SimTime before = io_->now();
  serve::Scheduler scheduler(*dict_, *io_, config);
  serve::ServeResult served = scheduler.serve(spec, ops);

  ConcurrentRunResult result;
  result.base.puts = served.counters.puts;
  result.base.gets = served.counters.gets;
  result.base.erases = served.counters.erases;
  result.base.scans = served.counters.scans;
  result.base.upserts = served.counters.upserts;
  result.base.get_hits = served.counters.get_hits;
  result.base.failed_ops = served.counters.failed_ops;
  result.base.digest = served.digest;

  if (options.flush_at_end) {
    if (options.fallible) {
      if (!checkpoint_with_retries(*dict_, 200).ok()) {
        ++result.base.failed_ops;
      }
    } else {
      dict_->flush();
    }
  }
  result.base.sim_elapsed = io_->now() - before;

  result.concurrent_elapsed = served.concurrent_elapsed;
  result.speedup = served.speedup();
  result.throughput_ops_per_sec = served.throughput_ops_per_sec();
  result.latency = std::move(served.latency);
  result.batches = served.batches;
  result.batch_ios = served.batch_ios;
  result.lane_ios = std::move(served.lane_ios);
  result.max_lane_depth = served.max_lane_depth;
  return result;
}

PutGetResult run_put_get(kv::Dictionary& dict, const PutGetSpec& spec) {
  DAMKIT_CHECK(spec.key_of != nullptr);
  DAMKIT_CHECK(spec.key_modulus > 0);
  PutGetResult result;
  const auto landed = [&](const Status& status) {
    if (status.ok()) return true;
    DAMKIT_CHECK_MSG(spec.tolerate_failures, status.to_string());
    ++result.failed_ops;
    return false;
  };
  Rng rng(spec.seed);
  const std::string value(spec.value_bytes, 'v');
  for (uint64_t i = 0; i < spec.puts; ++i) {
    const std::string key = spec.key_of(rng.next() % spec.key_modulus);
    landed(dict.try_put(key, value));
  }
  for (uint64_t i = 0; i < spec.gets; ++i) {
    const std::string key = spec.key_of(rng.next() % spec.key_modulus);
    const StatusOr<std::optional<std::string>> hit = dict.try_get(key);
    if (landed(hit.status()) && hit->has_value()) ++result.get_hits;
  }
  for (uint64_t i = 0; i < spec.scans; ++i) {
    landed(dict.try_range_scan(spec.key_of(0), spec.scan_limit).status());
  }
  return result;
}

Status checkpoint_with_retries(kv::Dictionary& dict, int max_attempts) {
  Status s = dict.checkpoint();
  for (int tries = 0; !s.ok() && tries < max_attempts; ++tries) {
    s = dict.checkpoint();
  }
  return s;
}

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
      checkpoint_with_retries(dict, spec.checkpoint_attempts);
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
    for (int tries = 0; !got.ok() && tries < spec.verify_read_attempts;
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
