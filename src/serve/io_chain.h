// Per-op IO chains recovered from a device trace.
//
// The serving layer separates *what* an op does (its engine data path,
// executed once, sequentially) from *when* its IOs land on the device under
// k concurrent clients (computed by replaying recovered chains through a
// discrete-event loop — see replay.h). This file is the bridge: given
// the slice of IoTrace records an op produced, reconstruct its dependency
// structure as a chain of stages.
//
// Recovery rule: records sharing a submission time form one stage. This is
// exact under the IoContext discipline — batch members are submitted at the
// same instant, while a dependent IO is only issued after its predecessor
// completes, and every device model charges positive service time, so
// dependent submissions carry strictly later clocks.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/device.h"
#include "sim/trace.h"

namespace damkit::serve {

/// IOs that were outstanding together: issue as one batch, complete at the
/// max finish.
struct IoStage {
  std::vector<sim::IoRequest> ios;
};

/// One op's IO dependency chain: stages execute in order, IOs within a
/// stage in parallel. Empty for ops served entirely from cache.
struct OpIoChain {
  std::vector<IoStage> stages;

  size_t io_count() const {
    size_t n = 0;
    for (const IoStage& s : stages) n += s.ios.size();
    return n;
  }
};

/// Rebuild the chain for the trace slice [begin, end).
OpIoChain build_io_chain(const std::vector<sim::TraceRecord>& records,
                         size_t begin, size_t end);

}  // namespace damkit::serve
