#include "harness/crash.h"

#include <string>
#include <utility>
#include <vector>

#include "harness/workload_runner.h"
#include "kv/op_apply.h"
#include "sim/fault_injection.h"
#include "sim/profiles.h"
#include "sim/ssd.h"

namespace damkit::harness {

namespace {

bool is_mutation(const kv::Op& op) {
  return op.type == kv::OpType::kPut || op.type == kv::OpType::kDelete ||
         op.type == kv::OpType::kUpsert;
}

uint64_t count_mutations(const kv::WorkloadSpec& spec, uint64_t ops) {
  kv::OpGenerator gen(spec);
  uint64_t n = 0;
  for (uint64_t i = 0; i < ops; ++i) {
    if (is_mutation(gen.next())) ++n;
  }
  return n;
}

}  // namespace

uint64_t state_digest(kv::Dictionary& dict) {
  uint64_t h = kv::kFnvOffsetBasis;
  constexpr size_t kChunk = 512;
  std::string lo;
  while (true) {
    const std::vector<std::pair<std::string, std::string>> rows =
        dict.range_scan(lo, kChunk);
    h = kv::digest_rows(h, rows);
    if (rows.size() < kChunk) break;
    // The shortest key strictly greater than the last one seen.
    lo = rows.back().first;
    lo.push_back('\0');
  }
  return h;
}

namespace {

std::unique_ptr<sim::Device> make_cycle_device(const CrashCycleSpec& spec) {
  if (spec.make_device) return spec.make_device();
  return std::make_unique<sim::SsdDevice>(sim::testbed_ssd_profile());
}

}  // namespace

uint64_t reference_state_digest(const CrashCycleSpec& spec) {
  const std::unique_ptr<sim::Device> dev_holder = make_cycle_device(spec);
  sim::Device& dev = *dev_holder;
  sim::IoContext io(dev);
  const std::unique_ptr<kv::Dictionary> dict = spec.make_engine(dev, io);
  WorkloadRunner runner(*dict, io);
  runner.bulk_load(spec.bulk_items, spec.workload);
  runner.run(spec.workload, spec.ops);  // flushes at the end
  return state_digest(*dict);
}

CrashCycleReport run_crash_cycle(const CrashCycleSpec& spec,
                                 uint64_t reference_digest) {
  CrashCycleReport report;
  report.reference_digest = reference_digest;
  report.mutations_total = count_mutations(spec.workload, spec.ops);

  const std::unique_ptr<sim::Device> inner_dev = make_cycle_device(spec);
  sim::FaultConfig faults;  // zero rates: the crash is the only fault
  faults.seed = spec.fault_seed;
  sim::FaultInjectingDevice dev(*inner_dev, faults);
  sim::IoContext io(dev);
  const wal::DurabilityConfig dcfg = spec.durability.value_or(
      wal::default_durability_config(dev.capacity_bytes()));

  // Phase 1: fresh durable engine, setup, arm the crash, drive until the
  // device dies (or the stream ends).
  auto eng = std::make_unique<wal::DurableEngine>(spec.make_engine(dev, io),
                                                  dev, io, dcfg);
  WorkloadRunner(*eng, io).bulk_load(spec.bulk_items, spec.workload);
  const uint64_t armed_base = dev.checked_ios();
  if (spec.crash_after_ios > 0) {
    dev.set_crash_at(armed_base + spec.crash_after_ios);
  }

  kv::OpGenerator gen(spec.workload);
  uint64_t read_digest = kv::kFnvOffsetBasis;
  kv::ApplyCounters counters;
  kv::ApplyOptions fallible;
  fallible.fallible = true;
  for (uint64_t i = 0; i < spec.ops && !dev.crashed(); ++i) {
    kv::apply_op(*eng, gen.next(), i, spec.workload, fallible, &read_digest,
                 &counters);
    if (spec.checkpoint_every_ops != 0 &&
        (i + 1) % spec.checkpoint_every_ops == 0) {
      // May fail when the crash lands inside it — recovery handles that.
      (void)eng->checkpoint();
    }
  }
  report.post_setup_ios = dev.checked_ios() - armed_base;
  report.crashed = dev.crashed();

  if (!report.crashed) {
    // Clean run: nothing to recover; the wrapper must still agree with the
    // unwrapped reference.
    eng->flush();
    report.durable_mutations = eng->durable_mutations();
    report.final_digest = state_digest(*eng);
    report.recovered_digest = report.final_digest;
    report.rerecovered_digest = report.final_digest;
    return report;
  }

  // Phase 2: the crash. Drop all volatile state — buffered WAL records and
  // dirty cache pages die here by definition — then bring the device back.
  eng->abandon();
  eng.reset();
  dev.reboot();

  // Phase 3: recover twice. Recovery writes nothing but the tail seal, so
  // the second pass must land on bit-identical state (idempotence).
  const auto make_inner = [&spec, &dev, &io] {
    return spec.make_engine(dev, io);
  };
  StatusOr<std::unique_ptr<wal::DurableEngine>> first =
      wal::DurableEngine::recover(make_inner, dev, io, dcfg, &report.recovery);
  DAMKIT_CHECK_OK(first.status());
  report.recovered_digest = state_digest(**first);
  const uint64_t first_durable = (*first)->durable_mutations();
  (*first).reset();  // normal teardown: the device is healthy again

  StatusOr<std::unique_ptr<wal::DurableEngine>> second =
      wal::DurableEngine::recover(make_inner, dev, io, dcfg, nullptr);
  DAMKIT_CHECK_OK(second.status());
  std::unique_ptr<wal::DurableEngine> recovered = std::move(*second);
  report.rerecovered_digest = state_digest(*recovered);
  report.durable_mutations = recovered->durable_mutations();
  DAMKIT_CHECK_MSG(report.durable_mutations == first_durable,
                   "double recovery disagreed on the durable prefix: "
                       << first_durable << " then "
                       << report.durable_mutations);

  // Phase 4: resume. Regenerate the op stream and skip exactly the
  // mutations that survived — interleaved reads mutate nothing, so
  // skipping them preserves the final state. Put values depend on the
  // GLOBAL op index, so the suffix is applied under its original indices.
  kv::OpGenerator resume_gen(spec.workload);
  uint64_t skipped = 0;
  uint64_t idx = 0;
  while (skipped < report.durable_mutations) {
    DAMKIT_CHECK_MSG(idx < spec.ops,
                     "durable prefix of " << report.durable_mutations
                                          << " mutations exceeds the stream");
    if (is_mutation(resume_gen.next())) ++skipped;
    ++idx;
  }
  for (; idx < spec.ops; ++idx) {
    kv::apply_op(*recovered, resume_gen.next(), idx, spec.workload, {},
                 &read_digest, &counters);
    ++report.resumed_ops;
  }
  recovered->flush();
  report.final_digest = state_digest(*recovered);
  return report;
}

}  // namespace damkit::harness
