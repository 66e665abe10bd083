// Every distributed detection driver behind one call (path, tree, scan,
// Problem 2 scan, motif, weighted path), for tests that check a property
// of every driver: each case runs its driver on a fixed small input and
// reduces the answer to comparable values.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/detect_par.hpp"
#include "core/scan2d.hpp"
#include "gf/gf256.hpp"
#include "graph/generators.hpp"
#include "partition/partition.hpp"
#include "util/rng.hpp"

namespace midas::core::testing {

/// What a driver run returns, in a form every driver can fill. `answer`
/// holds found/found_round (path, tree, motif), the feasibility table bits
/// (scan, scan2d) or the feasible weights (weighted); weighted runs report
/// no per-rank clocks.
struct DriverOutcome {
  std::vector<int> answer;
  double vtime = 0.0;
  std::vector<double> vclocks;
  std::vector<int> failed_ranks;
  int resumed_from_round = -1;
  std::uint64_t stragglers_flagged = 0;
};

struct DriverCase {
  std::string name;
  std::function<DriverOutcome(const MidasOptions&)> run;
};

inline DriverOutcome flag_outcome(const MidasResult& r) {
  return {{r.found ? 1 : 0, r.found_round},
          r.vtime,
          r.vclocks,
          r.failed_ranks,
          r.resumed_from_round,
          r.total_stats.stragglers_flagged};
}

/// One case per driver over a 24-vertex G(n, 0.25) with opt.k = 4. Each
/// run partitions the graph into opt.n1 blocks.
inline std::vector<DriverCase> driver_cases(std::uint64_t seed = 2024) {
  struct Input {
    gf::GF256 f;
    graph::Graph g, tmpl;
    std::vector<std::uint32_t> weights, colors, baselines;
    std::vector<std::uint32_t> motif{0, 0, 1, 2};
  };
  auto in = std::make_shared<Input>();
  Xoshiro256 rng(seed);
  in->g = graph::erdos_renyi_gnp(24, 0.25, rng);
  in->tmpl = graph::random_tree(4, rng);
  for (graph::VertexId v = 0; v < in->g.num_vertices(); ++v) {
    in->weights.push_back(static_cast<std::uint32_t>(rng.below(3)));
    in->colors.push_back(static_cast<std::uint32_t>(rng.below(3)));
  }
  // Problem 2 baselines in [1, 3]: heterogeneous, with a cap (4) below
  // the largest baseline sum of k = 4 vertices.
  for (graph::VertexId v = 0; v < in->g.num_vertices(); ++v)
    in->baselines.push_back(1 + static_cast<std::uint32_t>(rng.below(3)));
  auto part = [in](const MidasOptions& o) {
    return partition::block_partition(in->g, o.n1);
  };
  return {
      {"path",
       [in, part](const MidasOptions& o) {
         return flag_outcome(midas_kpath(in->g, part(o), o, in->f));
       }},
      {"tree",
       [in, part](const MidasOptions& o) {
         const TreeDecomposition td(in->tmpl, 0);
         return flag_outcome(midas_ktree(in->g, part(o), td, o, in->f));
       }},
      {"scan",
       [in, part](const MidasOptions& o) {
         const auto r = midas_scan(in->g, part(o), in->weights, o, in->f);
         DriverOutcome out{{},
                           r.vtime,
                           r.vclocks,
                           {},
                           r.resumed_from_round,
                           r.total_stats.stragglers_flagged};
         for (const auto& row : r.table.feasible)
           out.answer.insert(out.answer.end(), row.begin(), row.end());
         return out;
       }},
      {"scan2d",
       [in, part](const MidasOptions& o) {
         const auto r = midas_scan2d(in->g, part(o), in->baselines,
                                     in->weights, /*max_baseline=*/4, o, in->f);
         DriverOutcome out{{},
                           r.vtime,
                           r.vclocks,
                           r.failed_ranks,
                           r.resumed_from_round,
                           r.total_stats.stragglers_flagged};
         for (const auto& row : r.feasible)
           out.answer.insert(out.answer.end(), row.begin(), row.end());
         return out;
       }},
      {"motif",
       [in, part](const MidasOptions& o) {
         return flag_outcome(
             midas_motif(in->g, part(o), in->colors, in->motif, o, in->f));
       }},
      {"weighted",
       [in, part](const MidasOptions& o) {
         const auto r =
             midas_weighted_kpath(in->g, part(o), in->weights, o, in->f);
         DriverOutcome out{{r.feasible_weight.begin(),
                            r.feasible_weight.end()},
                           r.vtime,
                           {},
                           {},
                           r.resumed_from_round,
                           r.total_stats.stragglers_flagged};
         out.answer.push_back(r.max_weight ? static_cast<int>(*r.max_weight)
                                           : -1);
         return out;
       }},
  };
}

}  // namespace midas::core::testing
