// serve::replay on hand-built chains, no engine: cross-client batch
// formation, admission control, chains with no device work, and lane
// accounting, each checked against a reference device driven by hand.
#include "serve/replay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "sim/profiles.h"
#include "sim/ssd.h"

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

sim::IoRequest read_at(uint64_t offset) {
  return {sim::IoKind::kRead, offset, kReadBytes};
}

/// An op whose chain is one stage of one read.
OpIoChain one_read(uint64_t offset) {
  OpIoChain chain;
  chain.stages.push_back({{read_at(offset)}});
  return chain;
}

/// Two stripe-aligned offsets that the testbed SSD maps to different dies.
std::pair<uint64_t, uint64_t> offsets_on_two_dies() {
  const sim::SsdConfig profile = sim::testbed_ssd_profile();
  uint64_t b = profile.stripe_bytes;
  while (profile.die_of(b) == profile.die_of(0)) b += profile.stripe_bytes;
  return {0, b};
}

TEST(ReplayTest, TwoClientsStagesOnDifferentDiesGoOutAsOneBatch) {
  const auto [a, b] = offsets_on_two_dies();
  const ReplayTimeline t = replay({one_read(a), one_read(b)}, ssd_config(2, 4));
  EXPECT_EQ(t.batches, 1u);
  EXPECT_EQ(t.batch_ios, 2u);
  EXPECT_EQ(t.max_lane_depth, 1u);
  const sim::SsdConfig profile = sim::testbed_ssd_profile();
  EXPECT_EQ(t.lane_ios[static_cast<size_t>(profile.die_of(a))], 1u);
  EXPECT_EQ(t.lane_ios[static_cast<size_t>(profile.die_of(b))], 1u);
  EXPECT_EQ(t.latency.count(), 2u);

  // The makespan is exactly that batch on a fresh device.
  sim::SsdDevice ref(profile);
  const std::vector<sim::IoCompletion> cs =
      ref.submit_batch(std::vector<sim::IoRequest>{read_at(a), read_at(b)}, 0);
  EXPECT_EQ(t.concurrent_elapsed, std::max(cs[0].finish, cs[1].finish));
}

TEST(ReplayTest, InflightOneMakesAClientsSecondOpWaitForItsFirst) {
  const auto [a, b] = offsets_on_two_dies();
  const std::vector<OpIoChain> chains = {one_read(a), one_read(b)};
  // One client owns both ops; depth 1 admits the second at the first's
  // completion.
  const ReplayTimeline serial = replay(chains, ssd_config(1, 1));
  EXPECT_EQ(serial.batches, 2u);
  sim::SsdDevice ref(sim::testbed_ssd_profile());
  const sim::SimTime first = ref.submit(read_at(a), 0).finish;
  const sim::SimTime second = ref.submit(read_at(b), first).finish;
  EXPECT_EQ(serial.concurrent_elapsed, second);
  EXPECT_EQ(serial.latency.count(), 2u);

  // Depth 2 admits both at once: one batch, overlapped on two dies.
  const ReplayTimeline deep = replay(chains, ssd_config(1, 2));
  EXPECT_EQ(deep.batches, 1u);
  EXPECT_LT(deep.concurrent_elapsed, serial.concurrent_elapsed);
}

TEST(ReplayTest, LaterStagesWaitForTheEarlierOnes) {
  const auto [a, b] = offsets_on_two_dies();
  OpIoChain chain;
  chain.stages.push_back({{read_at(a)}});
  chain.stages.push_back({{read_at(b)}});
  const ReplayTimeline t = replay({chain}, ssd_config(1, 4));
  EXPECT_EQ(t.batches, 2u);
  sim::SsdDevice ref(sim::testbed_ssd_profile());
  const sim::SimTime first = ref.submit(read_at(a), 0).finish;
  EXPECT_EQ(t.concurrent_elapsed, ref.submit(read_at(b), first).finish);
}

TEST(ReplayTest, ChainsWithoutIosCompleteAtAdmission) {
  // Cache hits: no device work, zero latency, no batch.
  const ReplayTimeline t =
      replay(std::vector<OpIoChain>(3), ssd_config(2, 1));
  EXPECT_EQ(t.batches, 0u);
  EXPECT_EQ(t.concurrent_elapsed, 0u);
  EXPECT_EQ(t.latency.count(), 3u);
  EXPECT_EQ(t.latency.max(), 0u);
}

TEST(ReplayDeathTest, RequiresAReplayDevice) {
  ReplayConfig cfg;
  EXPECT_DEATH(replay({one_read(0)}, cfg), "replay device");
}

}  // namespace
}  // namespace damkit::serve
