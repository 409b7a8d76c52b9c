// serve::replay on hand-built trace records, no engine: stages from shared
// submit times, op boundaries from op_end, cross-client batch formation
// and its (depth, lane) issue order, admission control, ops with no device
// work, and lane accounting, each checked against a reference device
// driven by hand.
#include "serve/replay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/profiles.h"
#include "sim/ssd.h"
#include "sim/trace.h"

namespace damkit::serve {
namespace {

constexpr uint64_t kReadBytes = 4096;

ReplayConfig ssd_config(uint64_t clients, uint64_t inflight) {
  const sim::SsdConfig profile = sim::testbed_ssd_profile();
  ReplayConfig cfg;
  cfg.clients = clients;
  cfg.inflight = inflight;
  cfg.replay_device_factory = [profile]() -> std::unique_ptr<sim::Device> {
    return std::make_unique<sim::SsdDevice>(profile);
  };
  cfg.lanes = static_cast<size_t>(profile.total_dies());
  cfg.lane_of = [profile](uint64_t offset) {
    return static_cast<size_t>(profile.die_of(offset));
  };
  return cfg;
}

sim::IoRequest read_at(uint64_t offset, uint64_t length = kReadBytes) {
  return {sim::IoKind::kRead, offset, length};
}

/// A recorded read submitted at `submit`. The replay reads only the kind,
/// offset, length and submit time; the recorded start and finish stay 0.
sim::TraceRecord rec(uint64_t offset, sim::SimTime submit,
                     uint64_t length = kReadBytes) {
  sim::TraceRecord r;
  r.kind = sim::IoKind::kRead;
  r.offset = offset;
  r.length = length;
  r.submit = submit;
  return r;
}

/// Stripe-aligned offsets that the testbed SSD maps to `count` distinct
/// dies, in ascending die order.
std::vector<uint64_t> offsets_on_distinct_dies(size_t count) {
  const sim::SsdConfig profile = sim::testbed_ssd_profile();
  std::vector<uint64_t> out;
  std::vector<int> dies;
  for (uint64_t off = 0; out.size() < count; off += profile.stripe_bytes) {
    const int die = profile.die_of(off);
    if (std::find(dies.begin(), dies.end(), die) != dies.end()) continue;
    dies.push_back(die);
    out.push_back(off);
  }
  std::sort(out.begin(), out.end(), [&profile](uint64_t a, uint64_t b) {
    return profile.die_of(a) < profile.die_of(b);
  });
  return out;
}

/// Two stripe-aligned offsets that the testbed SSD maps to different dies.
std::pair<uint64_t, uint64_t> offsets_on_two_dies() {
  const std::vector<uint64_t> two = offsets_on_distinct_dies(2);
  return {two[0], two[1]};
}

/// replay() of the ops that `op_end` cuts `records` into.
ReplayTimeline replay_ops(const std::vector<sim::TraceRecord>& records,
                          const std::vector<size_t>& op_end,
                          const ReplayConfig& cfg) {
  return replay(records, op_end, cfg);
}

sim::SimTime batch_makespan(sim::Device& dev,
                            const std::vector<sim::IoRequest>& reqs,
                            sim::SimTime now) {
  sim::SimTime end = 0;
  for (const sim::IoCompletion& c : dev.submit_batch(reqs, now)) {
    end = std::max(end, c.finish);
  }
  return end;
}

TEST(ReplayTest, TwoClientsStagesOnDifferentDiesGoOutAsOneBatch) {
  const auto [a, b] = offsets_on_two_dies();
  const ReplayTimeline t =
      replay_ops({rec(a, 0), rec(b, 100)}, {1, 2}, ssd_config(2, 4));
  EXPECT_EQ(t.batches, 1u);
  EXPECT_EQ(t.batch_ios, 2u);
  EXPECT_EQ(t.max_lane_depth, 1u);
  const sim::SsdConfig profile = sim::testbed_ssd_profile();
  EXPECT_EQ(t.lane_ios[static_cast<size_t>(profile.die_of(a))], 1u);
  EXPECT_EQ(t.lane_ios[static_cast<size_t>(profile.die_of(b))], 1u);
  EXPECT_EQ(t.latency.count(), 2u);

  // The makespan is exactly that batch on a fresh device.
  sim::SsdDevice ref(profile);
  EXPECT_EQ(t.concurrent_elapsed,
            batch_makespan(ref, {read_at(a), read_at(b)}, 0));
}

TEST(ReplayTest, InflightOneMakesAClientsSecondOpWaitForItsFirst) {
  const auto [a, b] = offsets_on_two_dies();
  const std::vector records = {rec(a, 0), rec(b, 100)};
  // One client owns both ops; depth 1 admits the second at the first's
  // completion.
  const ReplayTimeline serial = replay_ops(records, {1, 2}, ssd_config(1, 1));
  EXPECT_EQ(serial.batches, 2u);
  sim::SsdDevice ref(sim::testbed_ssd_profile());
  const sim::SimTime first = ref.submit(read_at(a), 0).finish;
  const sim::SimTime second = ref.submit(read_at(b), first).finish;
  EXPECT_EQ(serial.concurrent_elapsed, second);
  EXPECT_EQ(serial.latency.count(), 2u);

  // Depth 2 admits both at once: one batch, overlapped on two dies.
  const ReplayTimeline deep = replay_ops(records, {1, 2}, ssd_config(1, 2));
  EXPECT_EQ(deep.batches, 1u);
  EXPECT_LT(deep.concurrent_elapsed, serial.concurrent_elapsed);
}

TEST(ReplayTest, LaterStagesWaitForTheEarlierOnes) {
  const auto [a, b] = offsets_on_two_dies();
  const ReplayTimeline t =
      replay_ops({rec(a, 0), rec(b, 100)}, {2}, ssd_config(1, 4));
  EXPECT_EQ(t.batches, 2u);
  sim::SsdDevice ref(sim::testbed_ssd_profile());
  const sim::SimTime first = ref.submit(read_at(a), 0).finish;
  EXPECT_EQ(t.concurrent_elapsed, ref.submit(read_at(b), first).finish);
}

TEST(ReplayTest, ChainsWithoutIosCompleteAtAdmission) {
  // Cache hits: no device work, zero latency, no batch.
  const ReplayTimeline t = replay_ops({}, {0, 0, 0}, ssd_config(2, 1));
  EXPECT_EQ(t.batches, 0u);
  EXPECT_EQ(t.concurrent_elapsed, 0u);
  EXPECT_EQ(t.latency.count(), 3u);
  EXPECT_EQ(t.latency.max(), 0u);
}

TEST(ReplayTest, SharedSubmitTimeFormsOneBatch) {
  // A batch of three at t=500, then one dependent IO at the batch finish.
  const std::vector<uint64_t> dies = offsets_on_distinct_dies(4);
  const std::vector records = {rec(dies[0], 500), rec(dies[1], 500),
                               rec(dies[2], 500), rec(dies[3], 700)};
  const ReplayTimeline t = replay_ops(records, {4}, ssd_config(1, 1));
  EXPECT_EQ(t.batches, 2u);
  EXPECT_EQ(t.batch_ios, 4u);
  EXPECT_EQ(t.max_lane_depth, 1u);
  sim::SsdDevice ref(sim::testbed_ssd_profile());
  const sim::SimTime first = batch_makespan(
      ref, {read_at(dies[0]), read_at(dies[1]), read_at(dies[2])}, 0);
  EXPECT_EQ(t.concurrent_elapsed, ref.submit(read_at(dies[3]), first).finish);
}

TEST(ReplayTest, LaterSubmitTimeWaitsForTheSlowestIoOfTheStageBefore) {
  // A short and a long read share a stage; the dependent read issues at
  // the long one's finish, not the short one's.
  constexpr uint64_t kLongBytes = 16 * kReadBytes;
  const std::vector<uint64_t> dies = offsets_on_distinct_dies(3);
  const std::vector records = {rec(dies[0], 0), rec(dies[1], 0, kLongBytes),
                               rec(dies[2], 900)};
  const ReplayTimeline t = replay_ops(records, {3}, ssd_config(1, 1));
  EXPECT_EQ(t.batches, 2u);
  sim::SsdDevice ref(sim::testbed_ssd_profile());
  const std::vector<sim::IoCompletion> cs = ref.submit_batch(
      std::vector{read_at(dies[0]), read_at(dies[1], kLongBytes)}, 0);
  ASSERT_LT(cs[0].finish, cs[1].finish);
  EXPECT_EQ(t.concurrent_elapsed,
            ref.submit(read_at(dies[2]), cs[1].finish).finish);
  EXPECT_EQ(t.latency.max(), t.concurrent_elapsed);
}

TEST(ReplayTest, EmptySliceCompletesAtAdmission) {
  // Op 1 has no records: admitted when op 0 completes, it completes at the
  // same instant with zero latency and issues nothing.
  const ReplayTimeline t = replay_ops({rec(0, 0)}, {1, 1}, ssd_config(1, 1));
  EXPECT_EQ(t.batches, 1u);
  EXPECT_EQ(t.latency.count(), 2u);
  EXPECT_EQ(t.latency.min(), 0u);
  sim::SsdDevice ref(sim::testbed_ssd_profile());
  EXPECT_EQ(t.concurrent_elapsed, ref.submit(read_at(0), 0).finish);
  EXPECT_EQ(t.latency.max(), t.concurrent_elapsed);
}

TEST(ReplayTest, OpEndSplitsOpsWhoseRecordsShareASubmitTime) {
  // Adjacent records with one submit time would be one stage of one op;
  // op_end makes them two ops, which one client at depth 1 serializes.
  const auto [a, b] = offsets_on_two_dies();
  const std::vector records = {rec(a, 100), rec(b, 100)};
  const ReplayTimeline t = replay_ops(records, {1, 2}, ssd_config(1, 1));
  EXPECT_EQ(t.batches, 2u);
  EXPECT_EQ(t.latency.count(), 2u);
  const ReplayTimeline one_op = replay_ops(records, {2}, ssd_config(1, 1));
  EXPECT_EQ(one_op.batches, 1u);
}

// Replay-device spy: forwards timing to an owned SsdDevice and records the
// offsets of every batch it is handed, into state that outlives the device
// (replay destroys its device before it returns).
class BatchSpyDevice final : public sim::Device {
 public:
  BatchSpyDevice(const sim::SsdConfig& cfg,
                 std::shared_ptr<std::vector<uint64_t>> issued)
      : sim::Device(cfg.capacity_bytes),
        inner_(cfg),
        issued_(std::move(issued)) {}
  std::string name() const override { return inner_.name(); }

 protected:
  sim::IoCompletion submit_io(const sim::IoRequest& req,
                              sim::SimTime now) override {
    issued_->push_back(req.offset);
    return inner_.submit(req, now);
  }
  std::vector<sim::IoCompletion> submit_batch_io(
      std::span<const sim::IoRequest> reqs, sim::SimTime now) override {
    for (const sim::IoRequest& req : reqs) issued_->push_back(req.offset);
    return inner_.submit_batch(reqs, now);
  }

 private:
  sim::SsdDevice inner_;
  std::shared_ptr<std::vector<uint64_t>> issued_;
};

TEST(ReplayTest, StageIssuesInDepthThenLaneOrder) {
  // One stage: a0 and a1 on die A, then b0 on die B, with A < B. Lane A
  // queues two deep and lane B one, so the lanes drained round-robin issue
  // a0 (depth 0, A), b0 (depth 0, B), a1 (depth 1, A).
  const sim::SsdConfig profile = sim::testbed_ssd_profile();
  const auto [a0, b0] = offsets_on_two_dies();
  uint64_t a1 = a0 + profile.stripe_bytes;
  while (profile.die_of(a1) != profile.die_of(a0)) a1 += profile.stripe_bytes;
  const std::vector records = {rec(a0, 0), rec(a1, 0), rec(b0, 0)};

  ReplayConfig cfg = ssd_config(1, 1);
  const ReplayTimeline t = replay_ops(records, {3}, cfg);
  EXPECT_EQ(t.batches, 1u);
  EXPECT_EQ(t.max_lane_depth, 2u);
  EXPECT_EQ(t.lane_ios[static_cast<size_t>(profile.die_of(a0))], 2u);
  EXPECT_EQ(t.lane_ios[static_cast<size_t>(profile.die_of(b0))], 1u);
  sim::SsdDevice ref(profile);
  EXPECT_EQ(t.concurrent_elapsed,
            batch_makespan(ref, {read_at(a0), read_at(b0), read_at(a1)}, 0));

  // SsdDevice regroups a batch by die, so its makespan does not tell the
  // orders apart; the batch the replay device is handed does.
  const auto issued = std::make_shared<std::vector<uint64_t>>();
  cfg.replay_device_factory = [profile, issued] {
    return std::make_unique<BatchSpyDevice>(profile, issued);
  };
  replay_ops(records, {3}, cfg);
  EXPECT_EQ(*issued, (std::vector<uint64_t>{a0, b0, a1}));
}

TEST(ReplayTest, NoOpsReplayToAnEmptyTimeline) {
  const ReplayConfig cfg = ssd_config(2, 4);
  const ReplayTimeline t = replay_ops({}, {}, cfg);
  EXPECT_EQ(t.batches, 0u);
  EXPECT_EQ(t.concurrent_elapsed, 0u);
  EXPECT_EQ(t.latency.count(), 0u);
  EXPECT_EQ(t.lane_ios, std::vector<uint64_t>(cfg.lanes, 0));
}

TEST(ReplayTest, MoreClientsThanOpsAdmitsEveryOpAtOnce) {
  const auto [a, b] = offsets_on_two_dies();
  const ReplayTimeline t =
      replay_ops({rec(a, 0), rec(b, 100)}, {1, 2}, ssd_config(8, 1));
  EXPECT_EQ(t.batches, 1u);
  EXPECT_EQ(t.batch_ios, 2u);
  EXPECT_EQ(t.latency.count(), 2u);
  sim::SsdDevice ref(sim::testbed_ssd_profile());
  EXPECT_EQ(t.concurrent_elapsed,
            batch_makespan(ref, {read_at(a), read_at(b)}, 0));
}

TEST(ReplayDeathTest, RequiresAReplayDevice) {
  ReplayConfig cfg;
  EXPECT_DEATH(replay_ops({rec(0, 0)}, {1}, cfg), "replay device");
}

TEST(ReplayDeathTest, RejectsABadOpEnd) {
  const std::vector records = {rec(0, 0), rec(4096, 100)};
  EXPECT_DEATH(replay_ops(records, {2, 1}, ssd_config(1, 1)), "nondecreasing");
  EXPECT_DEATH(replay_ops(records, {1, 3}, ssd_config(1, 1)),
               "past the 2 records");
}

}  // namespace
}  // namespace damkit::serve
