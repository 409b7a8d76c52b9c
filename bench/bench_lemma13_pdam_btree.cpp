// Lemma 13 / §8: a B-tree with nodes of size P·B laid out in van Emde
// Boas block order achieves throughput Ω(k / log_{PB/k} N) for any k ≤ P
// concurrent clients — adapting obliviously as the client count varies.
//
// The bench sweeps k, measures queries/step under the PDAM scheduler for
// (a) the vEB layout, (b) the BFS layout ablation, and prints the model's
// prediction; it also contrasts the fixed-size alternatives (small nodes
// vs big plain nodes) that Lemma 13 dominates.
#include <algorithm>
#include <vector>

#include "bench_common.h"
#include "harness/experiments.h"
#include "harness/report.h"
#include "model/pdam.h"
#include "pdam_tree/pdam_btree.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace damkit;
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::banner("Lemma 13 — PDAM B-tree with vEB nodes vs client count",
                "Lemma 13, §8");

  const uint64_t n = args.quick ? 1ULL << 18 : 1ULL << 22;
  const int p = 16;
  const uint64_t block = 1024;

  Rng rng(args.seed);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) k = rng.next() >> 1;
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  pdam_tree::PdamTreeConfig veb_cfg;
  veb_cfg.parallelism = p;
  veb_cfg.block_bytes = block;
  veb_cfg.slot_bytes = 16;
  veb_cfg.layout = pdam_tree::NodeLayout::kVeb;
  pdam_tree::PdamTreeConfig bfs_cfg = veb_cfg;
  bfs_cfg.layout = pdam_tree::NodeLayout::kBfs;

  const model::PdamModel model(p, block);

  const std::vector<int> clients = {1, 2, 4, 8, 16, 32};
  const uint64_t queries = args.quick ? 200 : 1000;
  const harness::PdamQueryRun veb = harness::run_pdam_tree_queries(
      keys, veb_cfg, clients, queries, args.seed + 1);
  const harness::PdamQueryRun bfs = harness::run_pdam_tree_queries(
      keys, bfs_cfg, clients, queries, args.seed + 1);
  DAMKIT_CHECK(veb.oracle_ok && bfs.oracle_ok);

  Table t({"clients k", "vEB q/step", "BFS q/step", "model Om(k/log)",
           "small-node q/step", "big-plain q/step"});
  for (size_t i = 0; i < clients.size(); ++i) {
    const int k = clients[i];
    const auto& rv = veb.points[i].result;
    const auto& rb = bfs.points[i].result;
    const double kk = std::min<double>(k, p);
    t.add_row({strfmt("%d", k), strfmt("%.3f", rv.throughput()),
               strfmt("%.3f", rb.throughput()),
               strfmt("%.3f", model.veb_btree_throughput(
                                  kk, static_cast<double>(keys.size()))),
               strfmt("%.3f", model.small_node_throughput(
                                  k, static_cast<double>(keys.size()))),
               strfmt("%.3f", model.big_plain_node_throughput(
                                  k, static_cast<double>(keys.size())))});
  }
  harness::emit("Lemma 13: query throughput vs concurrent clients", t,
                args.csv_prefix + "lemma13.csv");
  std::printf(
      "\npaper: with vEB nodes of size PB, one client gets the big-node "
      "optimum, P clients get the small-node optimum, and intermediate k "
      "degrades gracefully — no re-tuning.\n");
  std::printf("geometry: H=%d pivot levels, node height %d, %llu blocks/node\n",
              veb.geometry.global_height, veb.geometry.node_height,
              static_cast<unsigned long long>(veb.geometry.node_blocks));
  return 0;
}
