// Quickstart: a write-optimized key-value store on a simulated hard disk.
//
// Creates a simulated HDD, mounts a Bε-tree on it, performs inserts,
// point queries, a blind counter update, a delete, and a range scan, and
// prints how much *simulated device time* each phase cost — the quantity
// every damkit experiment is built around.
//
//   ./examples/quickstart
#include <cstdio>

#include "damkit.h"

int main() {
  using namespace damkit;

  // 1. A storage device. Profiles matching the paper's testbed are built
  // in; any HddConfig/SsdConfig works.
  sim::HddDevice disk(sim::testbed_hdd_profile());
  sim::IoContext io(disk);  // tracks one client's simulated clock

  // 2. A dictionary on the device, built through kv::make_engine: node
  // size B, fanout F ≈ √B, and a RAM budget (the cache is the M of the
  // external-memory models). Swap the EngineKind and the same program
  // runs on any of the five trees.
  kv::EngineConfig config;
  config.betree.node_bytes = 1 * kMiB;
  config.betree.cache_bytes = 16 * kMiB;
  const auto db = kv::make_engine(kv::EngineKind::kBeTree, disk, io, config);

  // 3. Writes are messages: cheap, batched, flushed down in bulk.
  const sim::SimTime t0 = io.now();
  for (uint64_t i = 0; i < 50'000; ++i) {
    db->put(kv::encode_key(i), kv::make_value(i, 64));
  }
  db->flush();
  const sim::SimTime t1 = io.now();
  std::printf("insert 50k pairs: %.3f simulated seconds (%.1f us/op)\n",
              sim::to_seconds(t1 - t0),
              sim::to_seconds(t1 - t0) * 1e6 / 50'000);

  // 4. Point queries see every pending message on the root-leaf path.
  const auto hit = db->get(kv::encode_key(123));
  std::printf("get(123): %s\n", hit.has_value() ? "found" : "MISSING");
  const auto miss = db->get(kv::encode_key(999'999));
  std::printf("get(999999): %s\n", miss.has_value() ? "FOUND?!" : "absent");

  // 5. Upserts are blind read-modify-writes — no read IO at all.
  for (int i = 0; i < 1000; ++i) db->upsert("page-views", 1);
  std::printf("page-views counter: %llu\n",
              static_cast<unsigned long long>(
                  kv::decode_counter(*db->get("page-views"))));

  // 6. Deletes are tombstone messages.
  db->erase(kv::encode_key(123));
  std::printf("get(123) after erase: %s\n",
              db->get(kv::encode_key(123)).has_value() ? "FOUND?!" : "absent");

  // 7. Range scans merge leaf data with buffered messages.
  const auto range = db->range_scan(kv::encode_key(1000), 5);
  std::printf("scan from 1000, 5 results:\n");
  for (const auto& [k, v] : range) {
    std::printf("  key %llu, value[0..8)=%.8s\n",
                static_cast<unsigned long long>(kv::decode_key(k)),
                v.c_str());
  }

  // 8. Device-side accounting.
  const sim::DeviceStats& ds = disk.stats();
  std::printf(
      "device: %llu reads / %llu writes, %s read, %s written, cache hit "
      "rate %.1f%%\n",
      static_cast<unsigned long long>(ds.reads),
      static_cast<unsigned long long>(ds.writes),
      format_bytes(ds.bytes_read).c_str(),
      format_bytes(ds.bytes_written).c_str(),
      db->cache_hit_rate() * 100.0);
  return 0;
}
