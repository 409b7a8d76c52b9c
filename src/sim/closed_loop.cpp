#include "sim/closed_loop.h"

#include <algorithm>
#include <queue>

namespace damkit::sim {

ClosedLoopResult run_closed_loop(Device& dev, const ClosedLoopConfig& config) {
  const uint64_t slots =
      (dev.capacity_bytes() - config.io_bytes) / config.io_bytes + 1;
  return run_closed_loop(dev, config, [&](int /*client*/, Rng& rng) {
    return rng.uniform(slots) * config.io_bytes;
  });
}

ClosedLoopResult run_closed_loop(
    Device& dev, const ClosedLoopConfig& config,
    const std::function<uint64_t(int client, Rng& rng)>& next_offset) {
  DAMKIT_CHECK(config.clients > 0);
  DAMKIT_CHECK(config.io_bytes > 0);
  DAMKIT_CHECK(config.io_bytes <= dev.capacity_bytes());

  struct Pending {
    SimTime issue_at;
    int client;
    bool operator>(const Pending& other) const {
      // Tie-break on client id for determinism.
      return issue_at != other.issue_at ? issue_at > other.issue_at
                                        : client > other.client;
    }
  };

  Rng rng(config.seed);
  std::vector<uint64_t> remaining(static_cast<size_t>(config.clients),
                                  config.ios_per_client);
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> queue;
  for (int c = 0; c < config.clients; ++c) queue.push({0, c});

  ClosedLoopResult result;
  while (!queue.empty()) {
    const Pending p = queue.top();
    queue.pop();
    auto& left = remaining[static_cast<size_t>(p.client)];
    if (left == 0) continue;
    --left;

    const uint64_t offset = next_offset(p.client, rng);
    DAMKIT_CHECK_MSG(offset + config.io_bytes <= dev.capacity_bytes(),
                     "offset generator out of range");
    // Each client owns its queue-pair tag: multi-queue devices route the
    // IO onto the client's SQ/CQ pair, single-queue devices ignore it.
    const IoCompletion c =
        dev.submit({config.kind, offset, config.io_bytes,
                    static_cast<uint32_t>(p.client)},
                   p.issue_at);

    result.latency.record(c.latency(p.issue_at));
    result.makespan = std::max(result.makespan, c.finish);
    ++result.total_ios;
    result.total_bytes += config.io_bytes;

    if (left > 0) queue.push({c.finish, p.client});
  }
  return result;
}

}  // namespace damkit::sim
