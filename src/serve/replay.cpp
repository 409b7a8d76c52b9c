#include "serve/replay.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>

#include "util/status.h"

namespace damkit::serve {

namespace {

/// One IO of the batch being formed: its depth in its lane's queue, the
/// lane, and the batch position of the op that issues it. The batch issues
/// in (depth, lane) order: the lanes drained round-robin.
struct LaneSlot {
  size_t depth;
  size_t lane;
  size_t owner;
  sim::IoRequest req;

  bool operator<(const LaneSlot& o) const {
    return depth != o.depth ? depth < o.depth : lane < o.lane;
  }
};

}  // namespace

ReplayTimeline replay(std::span<const sim::TraceRecord> records,
                      std::span<const size_t> op_end,
                      const ReplayConfig& config) {
  DAMKIT_CHECK_MSG(config.clients >= 1, "need at least one client");
  DAMKIT_CHECK_MSG(config.inflight >= 1, "need inflight depth >= 1");
  DAMKIT_CHECK_MSG(config.lanes >= 1, "need at least one dispatch lane");
  DAMKIT_CHECK_MSG(config.replay_device_factory != nullptr,
                   "replay needs a replay device factory");
  DAMKIT_CHECK_MSG(std::is_sorted(op_end.begin(), op_end.end()),
                   "op_end must be nondecreasing");
  DAMKIT_CHECK_MSG(op_end.empty() || op_end.back() <= records.size(),
                   "op_end runs past the " << records.size() << " records");
  ReplayTimeline result;
  result.lane_ios.assign(config.lanes, 0);
  const std::unique_ptr<sim::Device> dev = config.replay_device_factory();
  const uint64_t k = config.clients;
  const size_t n = op_end.size();

  // Per op: its next record to issue and its admission instant.
  std::vector<size_t> next(n);
  std::vector<sim::SimTime> admitted(n);
  // Per client: next op to admit (ops of client c are c, c+k, c+2k, ...)
  // and how many are currently open.
  std::vector<size_t> next_op(k);
  std::vector<uint64_t> open_count(k, 0);
  for (uint64_t c = 0; c < k; ++c) next_op[c] = c;

  // Open ops by (ready time, op index): when each op's next stage may
  // issue. An op admitted with no records completes at its ready time.
  using Ready = std::pair<sim::SimTime, size_t>;
  std::priority_queue<Ready, std::vector<Ready>, std::greater<>> ready;
  sim::SimTime makespan = 0;

  const auto admit = [&](uint64_t c, sim::SimTime t) {
    while (next_op[c] < n && open_count[c] < config.inflight) {
      const size_t id = next_op[c];
      next[id] = id == 0 ? 0 : op_end[id - 1];
      admitted[id] = t;
      ready.emplace(t, id);
      ++open_count[c];
      next_op[c] += k;
    }
  };
  const auto complete = [&](size_t id, sim::SimTime t) {
    result.latency.record(t - admitted[id]);
    makespan = std::max(makespan, t);
    const uint64_t c = id % k;
    --open_count[c];
    admit(c, t);
  };

  for (uint64_t c = 0; c < k; ++c) admit(c, /*t=*/0);

  std::vector<size_t> batch;  // ops issuing a stage at t, by op index
  std::vector<LaneSlot> slots;
  std::vector<size_t> lane_depth(config.lanes, 0);
  std::vector<sim::IoRequest> reqs;
  std::vector<sim::SimTime> stage_finish;  // by batch position
  while (!ready.empty()) {
    // Every op ready at t: one with no records left completes now, and the
    // ops its client admits join this instant. An admitted op's index
    // exceeds its predecessor's, so the pops, and so `batch`, ascend.
    const sim::SimTime t = ready.top().first;
    batch.clear();
    while (!ready.empty() && ready.top().first == t) {
      const size_t id = ready.top().second;
      ready.pop();
      if (next[id] == op_end[id]) {
        complete(id, t);
      } else {
        batch.push_back(id);
      }
    }
    if (batch.empty()) continue;

    // Cross-client batch formation through the per-lane dispatch queues:
    // each IO of every op's stage joins the queue of its lane, and the
    // lanes drain round-robin into one submission-queue batch.
    slots.clear();
    for (size_t pos = 0; pos < batch.size(); ++pos) {
      const size_t id = batch[pos];
      size_t& r = next[id];
      const sim::SimTime submit = records[r].submit;
      for (; r < op_end[id] && records[r].submit == submit; ++r) {
        const sim::TraceRecord& rec = records[r];
        // Client → device queue pair: the owning client's id rides on
        // the request, so a multi-queue device lands each client on its
        // own SQ/CQ pair instead of one shared SQ.
        const sim::IoRequest req{rec.kind, rec.offset, rec.length,
                                 static_cast<uint32_t>(id % k)};
        const size_t lane =
            config.lane_of ? config.lane_of(rec.offset) % config.lanes : 0;
        slots.push_back({lane_depth[lane]++, lane, pos, req});
        ++result.lane_ios[lane];
      }
    }
    std::sort(slots.begin(), slots.end());
    result.max_lane_depth =
        std::max<uint64_t>(result.max_lane_depth, slots.back().depth + 1);
    reqs.clear();
    for (const LaneSlot& s : slots) {
      reqs.push_back(s.req);
      lane_depth[s.lane] = 0;
    }

    const std::vector<sim::IoCompletion> cs = dev->submit_batch(reqs, t);
    ++result.batches;
    result.batch_ios += reqs.size();

    stage_finish.assign(batch.size(), 0);
    for (size_t i = 0; i < cs.size(); ++i) {
      sim::SimTime& f = stage_finish[slots[i].owner];
      f = std::max(f, cs[i].finish);
    }
    // An op whose last stage this was completes at its finish right away,
    // so its client admits the next op for that instant before any event
    // between t and the finish is processed.
    for (size_t pos = 0; pos < batch.size(); ++pos) {
      const size_t id = batch[pos];
      if (next[id] == op_end[id]) {
        complete(id, stage_finish[pos]);
      } else {
        ready.emplace(stage_finish[pos], id);
      }
    }
  }
  result.concurrent_elapsed = makespan;
  return result;
}

}  // namespace damkit::serve
