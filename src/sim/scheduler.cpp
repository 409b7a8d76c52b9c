#include "sim/scheduler.h"

#include <algorithm>

#include "util/status.h"

namespace damkit::sim {

const char* sched_policy_name(SchedPolicy p) {
  switch (p) {
    case SchedPolicy::kFifo: return "FIFO";
    case SchedPolicy::kSstf: return "SSTF";
    case SchedPolicy::kScan: return "SCAN";
  }
  return "?";
}

SchedulerResult run_scheduled(HddDevice& dev, const SchedulerConfig& config,
                              std::vector<TimedRequest> requests) {
  DAMKIT_CHECK(config.queue_depth >= 1);
  SchedulerResult result;
  if (requests.empty()) return result;

  // Process in availability order; the window holds available requests.
  std::stable_sort(requests.begin(), requests.end(),
                   [](const TimedRequest& a, const TimedRequest& b) {
                     return a.available_at < b.available_at;
                   });

  std::vector<TimedRequest> window;  // arrival order
  std::vector<uint64_t> tracks;      // the window's, for pick_request
  size_t next_arrival = 0;
  SimTime now = 0;
  bool scan_up = true;

  const auto refill = [&] {
    while (next_arrival < requests.size() &&
           window.size() < config.queue_depth &&
           requests[next_arrival].available_at <= now) {
      window.push_back(requests[next_arrival]);
      ++next_arrival;
    }
    if (window.empty() && next_arrival < requests.size()) {
      // Idle until the next request arrives.
      now = std::max(now, requests[next_arrival].available_at);
      window.push_back(requests[next_arrival]);
      ++next_arrival;
    }
  };

  while (true) {
    refill();
    if (window.empty()) break;

    tracks.clear();
    for (const TimedRequest& r : window) {
      tracks.push_back(dev.track_of(r.io.offset));
    }
    const SchedPick pick =
        pick_request(config.policy, dev.head_track(), tracks, scan_up);
    if (pick.reversed) ++result.direction_reversals;

    const TimedRequest p = window[pick.index];
    window.erase(window.begin() + static_cast<ptrdiff_t>(pick.index));
    const IoCompletion c = dev.submit(p.io, now);
    now = c.finish;
    result.latency.record(c.finish - p.available_at);
    result.makespan = c.finish;
    ++result.ios;
  }
  return result;
}

}  // namespace damkit::sim
