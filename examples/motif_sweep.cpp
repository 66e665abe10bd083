// Template sweep through the batched detection service (docs/SERVICE.md).
//
//   ./motif_sweep [--n=300] [--seed=2] [--workers=4] [--no-cache]
//
// Submits a k in [3, 8] sweep of path and star templates against one
// heavy-tailed network as concurrent service queries. Every query after
// the first reuses the cached partition + halo schedule (and, for k-path,
// the per-(seed, k) randomness tables), so the sweep pays the graph setup
// once — the cache statistics at the end show the amortization the
// single-query CLI cannot get.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "service/replay.hpp"
#include "service/service.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using midas::service::QuerySpec;
using midas::service::QueryType;

/// Star template over [0, k): vertex 0 is the hub.
std::vector<std::pair<std::uint32_t, std::uint32_t>> star_edges(int k) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> e;
  for (int i = 1; i < k; ++i)
    e.emplace_back(0u, static_cast<std::uint32_t>(i));
  return e;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace midas;
  const Args args(argc, argv);
  const auto n = static_cast<graph::VertexId>(args.get_int("n", 300));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2));

  Xoshiro256 rng(seed);
  service::ServiceOptions sopt;
  sopt.workers = static_cast<int>(args.get_int("workers", 4));
  sopt.cache_enabled = !args.get_flag("no-cache");
  service::DetectionService svc(sopt);
  svc.add_graph("net", graph::barabasi_albert(n, 3, rng));

  struct Row {
    int k;
    const char* shape;
    std::shared_future<service::QueryResult> fut;
  };
  std::vector<Row> rows;
  for (int k = 3; k <= 8; ++k) {
    QuerySpec q;
    q.graph = "net";
    q.k = k;
    q.seed = seed;
    q.lane = service::Lane::kInteractive;

    q.type = QueryType::kPath;  // the engine's native k-path query
    rows.push_back({k, "k-path", svc.submit(q)});

    q.type = QueryType::kTree;
    service::derive_payload(q, n, 1);  // a path template over [0, k)
    rows.push_back({k, "path tree", svc.submit(q)});

    q.tree_edges = star_edges(k);
    rows.push_back({k, "star", svc.submit(q)});
  }
  svc.drain();

  Table t({"k", "template", "found", "rounds", "engine ms", "total ms"});
  for (auto& row : rows) {
    const service::QueryResult r = row.fut.get();
    t.add_row({Table::cell(row.k), row.shape, r.found ? "yes" : "no",
               Table::cell(r.rounds_run),
               Table::cell(r.engine_wall_s * 1e3, 3),
               Table::cell(r.total_s * 1e3, 3)});
  }
  t.print();

  const service::ServiceStats s = svc.stats();
  std::printf(
      "\n%llu queries, cache: %llu hits / %llu builds / %llu evictions "
      "(cache %s)\n",
      static_cast<unsigned long long>(s.executed),
      static_cast<unsigned long long>(s.cache.hits),
      static_cast<unsigned long long>(s.cache.builds),
      static_cast<unsigned long long>(s.cache.evictions),
      svc.cache().enabled() ? "on" : "off");
  return 0;
}
