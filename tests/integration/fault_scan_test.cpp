// Range scans under injected read faults. A Bε-tree scan merges leaf
// entries with views borrowed from the buffers of every node on its path,
// so a read that gives up halfway through must unwind without touching a
// dangling view. With a 20% read error rate, no retries and a four-node
// cache, every try_range_scan either returns the model's rows or a non-OK
// Status, and never aborts; the ASan legs check the views' lifetimes.
//
// The mutations between the scans retry until they land, so the model
// stays exact: a mutation that gives up mid-flush can leave an oversized
// dirty node, and evicting that node aborts in NodeStore::prepare_write.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "betree/betree.h"
#include "betree_opt/opt_betree.h"
#include "kv/slice.h"
#include "sim/fault_injection.h"
#include "sim/profiles.h"
#include "sim/ssd.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace damkit {
namespace {

class FaultSoakScanTest : public testing::TestWithParam<bool> {};

TEST_P(FaultSoakScanTest, ScansMatchTheModelOrFail) {
  const bool optimized = GetParam();
  sim::SsdDevice inner(sim::testbed_ssd_profile());
  sim::FaultConfig faults;
  faults.seed = 29;
  faults.read_error_rate = 0.2;
  sim::FaultInjectingDevice dev(inner, faults);
  sim::IoContext io(dev);
  betree::BeTreeConfig tc;
  tc.node_bytes = 4 * kKiB;
  tc.target_fanout = 8;
  tc.cache_bytes = 4 * tc.node_bytes;
  std::unique_ptr<betree::BeTree> tree;
  if (optimized) {
    tree = std::make_unique<betree_opt::OptBeTree>(dev, io, tc);
  } else {
    tree = std::make_unique<betree::BeTree>(dev, io, tc);
  }
  const blockdev::RetryPolicy give_up{.max_attempts = 1};
  const blockdev::RetryPolicy patient{.max_attempts = 64};

  // bulk_load writes through the unchecked paths, which never fault.
  constexpr uint64_t kN = 1500;
  std::map<std::string, std::string> model;
  tree->bulk_load(kN, [](uint64_t i) {
    return std::make_pair(kv::encode_key(2 * i), kv::make_value(i, 20));
  });
  for (uint64_t i = 0; i < kN; ++i) {
    model[kv::encode_key(2 * i)] = kv::make_value(i, 20);
  }

  Rng rng(optimized ? 31 : 37);
  uint64_t ok_scans = 0;
  uint64_t failed_scans = 0;
  for (int op = 0; op < 3000; ++op) {
    const std::string key = kv::encode_key(rng.uniform(2 * kN + 20));
    const uint64_t dice = rng.uniform(10);
    if (dice < 4) {
      tree->set_retry_policy(give_up);
      const size_t limit = 1 + static_cast<size_t>(rng.uniform(60));
      const auto rows = tree->try_range_scan(key, limit);
      if (!rows.ok()) {
        ++failed_scans;
        continue;
      }
      ++ok_scans;
      std::vector<std::pair<std::string, std::string>> want;
      for (auto it = model.lower_bound(key);
           it != model.end() && want.size() < limit; ++it) {
        want.push_back(*it);
      }
      EXPECT_EQ(*rows, want) << "op " << op;
      continue;
    }
    tree->set_retry_policy(patient);
    if (dice < 7) {
      const std::string value = kv::make_value(rng.next(), 20);
      ASSERT_TRUE(tree->try_put(key, value).ok()) << "op " << op;
      model[key] = value;
    } else if (dice < 8) {
      ASSERT_TRUE(tree->try_erase(key).ok()) << "op " << op;
      model.erase(key);
    } else {
      ASSERT_TRUE(tree->try_upsert(key, 5).ok()) << "op " << op;
      const auto it = model.find(key);
      model[key] = kv::encode_counter(
          (it == model.end() ? 0 : kv::decode_counter(it->second)) + 5);
    }
  }
  EXPECT_GT(ok_scans, 100u);
  EXPECT_GT(failed_scans, 100u);
  EXPECT_EQ(dev.fault_stats().injected_errors(),
            tree->retry_counters().retries + tree->retry_counters().give_ups);

  tree->set_retry_policy(patient);
  tree->check_invariants();
  const auto all = tree->try_range_scan("", model.size() + 10);
  ASSERT_TRUE(all.ok());
  const std::vector<std::pair<std::string, std::string>> want(model.begin(),
                                                              model.end());
  EXPECT_EQ(*all, want);
}

INSTANTIATE_TEST_SUITE_P(Trees, FaultSoakScanTest, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& p) {
                           return p.param ? "OptBeTree" : "BeTree";
                         });

}  // namespace
}  // namespace damkit
