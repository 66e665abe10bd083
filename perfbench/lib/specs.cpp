#include "specs.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <tuple>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace svc = midas::service;
using midas::Xoshiro256;

namespace {

/// Independent stream per (workload seed, query index, salt).
std::uint64_t mix(std::uint64_t seed, std::uint64_t i, std::uint64_t salt) {
  midas::SplitMix64 sm(seed * 0x9E3779B97F4A7C15ULL ^ (i + 1) * 0xBF58476D1CE4E5B9ULL ^
                       salt);
  return sm.next();
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> binary_tree(int k) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (int v = 1; v < k; ++v)
    edges.emplace_back(static_cast<std::uint32_t>((v - 1) / 2),
                       static_cast<std::uint32_t>(v));
  return edges;
}

std::vector<std::uint32_t> draws(std::uint32_t n, std::uint64_t seed,
                                 std::uint32_t bound) {
  Xoshiro256 rng(seed);
  std::vector<std::uint32_t> out(n);
  for (auto& x : out) x = static_cast<std::uint32_t>(rng.below(bound));
  return out;
}

/// Per-vertex weights for scan, or colors plus a color-feasible multiset
/// (sampled from the coloring itself) for motif.
void fill_payload(svc::QuerySpec& q, std::uint32_t n, std::uint32_t palette) {
  if (q.type == svc::QueryType::kTree) q.tree_edges = binary_tree(q.k);
  if (q.type == svc::QueryType::kScan) q.weights = draws(n, q.seed ^ 0x5CA1, 5);
  if (q.type == svc::QueryType::kMotif) {
    q.colors = draws(n, q.seed ^ 0xC0104, palette);
    Xoshiro256 rng(q.seed ^ 0x307216);
    q.motif.resize(static_cast<std::size_t>(q.k));
    for (auto& c : q.motif) c = q.colors[rng.below(n)];
  }
}

constexpr svc::QueryType kTypes[4] = {svc::QueryType::kPath,
                                      svc::QueryType::kTree,
                                      svc::QueryType::kScan,
                                      svc::QueryType::kMotif};

}  // namespace

midas::graph::Graph engine_large_graph(std::uint64_t seed) {
  Xoshiro256 rng(mix(seed, 0, 0x1A6E));
  return midas::graph::erdos_renyi_gnm(kLargeN, 4ULL * kLargeN, rng);
}

svc::QuerySpec engine_large_query(std::uint64_t seed, std::uint64_t i) {
  static constexpr int kK[4] = {12, 11, 5, 8};
  svc::QuerySpec q;
  q.type = kTypes[i % 4];
  q.graph = kLargeGraph;
  q.k = kK[i % 4];
  q.seed = mix(seed, i, 0xE1);
  q.max_rounds = 1;
  q.early_exit = false;
  q.kernel = midas::core::Kernel::kAuto;
  q.n_ranks = 4;
  q.n1 = 2;
  fill_payload(q, kLargeN, 3);
  // The sieve's cost depends on the multiset's composition; a fixed
  // balanced one keeps each motif query equally costly across seeds.
  if (q.type == svc::QueryType::kMotif)
    for (int c = 0; c < q.k; ++c) q.motif[static_cast<std::size_t>(c)] = c % 3;
  return q;
}

std::vector<svc::GraphSpec> wire_small_graphs(std::uint64_t seed) {
  return {{"small-gnp", "gnp", 300, 0.02, 0, mix(seed, 0, 0x51)},
          {"small-ba", "ba", 300, 0.0, 3, mix(seed, 1, 0x51)}};
}

svc::QuerySpec wire_small_query(std::uint64_t seed, std::uint64_t i) {
  const std::uint64_t h = mix(seed, i, 0x5A);
  svc::QuerySpec q;
  q.type = (h & 1) ? svc::QueryType::kTree : svc::QueryType::kPath;
  q.graph = (h & 2) ? "small-ba" : "small-gnp";
  q.k = 3;
  q.seed = h >> 8;  // distinct per query
  q.max_rounds = 1;
  q.n_ranks = 1;
  q.n1 = 1;
  fill_payload(q, 300, 3);
  return q;
}

std::vector<svc::GraphSpec> wire_mix_graphs(std::uint64_t seed) {
  return {{"mix-gnp", "gnp", 3000, 8.0 / 3000.0, 0, mix(seed, 0, 0x3C)},
          {"mix-road", "road", 3000, 0.92, 0, mix(seed, 1, 0x3C)},
          {"mix-ba", "ba", 3000, 0.0, 3, mix(seed, 2, 0x3C)}};
}

std::vector<Arrival> wire_mix_schedule(std::uint64_t seed, double seconds) {
  static constexpr int kK[4] = {7, 7, 3, 5};
  static const char* const kGraphs[3] = {"mix-gnp", "mix-road", "mix-ba"};
  Xoshiro256 rng(mix(seed, 0, 0xA77));
  // A Poisson process conditioned on its count: exactly rate x seconds
  // arrivals at sorted uniform times, so every run offers the same load.
  const auto n = static_cast<std::size_t>(std::llround(kMixRate * seconds));
  std::vector<double> due(n);
  for (auto& t : due) t = rng.uniform() * seconds;
  std::sort(due.begin(), due.end());
  // The mix is stratified in blocks of 12 new queries: every (type, graph)
  // pair once, in seeded order, with one interactive query per type (a
  // third of the block). Every 10th arrival repeats the one before it.
  std::vector<Arrival> out;
  std::vector<int> block;
  std::uint64_t fresh = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Arrival a;
    a.due_s = due[i];
    if (i % 10 == 9) {
      a.spec = out.back().spec;
      a.repeat = true;
      out.push_back(std::move(a));
      continue;
    }
    if (block.empty()) {
      for (int c = 0; c < 12; ++c) block.push_back(c);
      for (std::size_t j = block.size() - 1; j > 0; --j)
        std::swap(block[j], block[rng.below(j + 1)]);
    }
    const int combo = block.back();
    block.pop_back();
    const int type = combo % 4, graph = combo / 4;
    svc::QuerySpec& q = a.spec;
    q.type = kTypes[type];
    q.graph = kGraphs[graph];
    q.lane = graph == (type + static_cast<int>(fresh / 12)) % 3
                 ? svc::Lane::kInteractive
                 : svc::Lane::kBatch;
    q.k = kK[type];
    q.seed = mix(seed, fresh++, 0x3E);
    q.max_rounds = 1;
    q.n_ranks = 2;
    q.n1 = 2;
    q.certify = q.lane == svc::Lane::kInteractive &&
                (q.type == svc::QueryType::kPath ||
                 q.type == svc::QueryType::kMotif);
    fill_payload(q, 3000, 3);
    out.push_back(std::move(a));
  }
  return out;
}

std::vector<svc::QuerySpec> warmup_queries(
    const std::vector<svc::QuerySpec>& sample) {
  std::set<std::tuple<std::string, int, int>> seen;
  std::vector<svc::QuerySpec> out;
  for (const auto& q : sample)
    if (seen.emplace(q.graph, static_cast<int>(q.type), q.n1).second)
      out.push_back(q);
  return out;
}

}  // namespace perfbench
