// Full Problem 2 scan feasibility: heterogeneous baselines.
//
// The paper's Problem 2 constrains the *baseline* count: find connected S
// maximizing F(W(S), B(S)) subject to B(S) <= cap, where B is not |S| in
// general. Algorithm 5 (and scan/scan_statistics.hpp) use the unit-
// baseline shortcut B(S) = |S|. The general case is the same layered DP
// with one more variable in its generating function: a baseline axis of
// height cap + 1 beside the weight axis, convolved the same way. Both
// entries below run the scan kernels with that axis (detail_seq::scan_cells
// and detail::LayeredRec) and OR the size layers away, leaving the set of
// achievable (B(S), W(S)) pairs over connected subgraphs of at most k
// vertices. Any statistic F(W, B) is then maximized over the table, with
// the true heterogeneous B.
//
// Cost: the scan's cost times (cap + 1)(cap + 2)/2 per edge row — use
// rounded weights aggressively (scan::round_weights / step_for_total).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/detect_par.hpp"
#include "core/detect_seq.hpp"
#include "gf/field.hpp"
#include "graph/csr.hpp"
#include "util/require.hpp"

namespace midas::core {

/// feasible[y][z] == true => a connected subgraph with at most `max_size`
/// vertices, rounded baseline exactly y (y <= max_baseline), and rounded
/// event weight exactly z exists. "true" entries are always correct.
struct Feasibility2D {
  int max_size = 0;
  std::uint32_t max_baseline = 0;
  std::uint32_t max_weight = 0;
  std::vector<std::vector<bool>> feasible;  // [y][z]

  [[nodiscard]] bool at(std::uint32_t y, std::uint32_t z) const {
    return y <= max_baseline && z <= max_weight && feasible[y][z];
  }

  /// The table of a layered-DP run at height max_baseline + 1: cell
  /// (y, z) is feasible when any size layer j in [1, k] hit it.
  static Feasibility2D from_cells(int k, std::uint32_t max_baseline,
                                  std::uint32_t max_weight,
                                  const std::vector<std::uint8_t>& hit) {
    Feasibility2D t{k, max_baseline, max_weight,
                    std::vector(max_baseline + 1,
                                std::vector<bool>(max_weight + 1, false))};
    const std::size_t plane =
        static_cast<std::size_t>(max_baseline + 1) * (max_weight + 1);
    for (int j = 1; j <= k; ++j)
      for (std::uint32_t y = 0; y <= max_baseline; ++y)
        for (std::uint32_t z = 0; z <= max_weight; ++z)
          if (hit[static_cast<std::size_t>(j) * plane +
                  static_cast<std::size_t>(y) * (max_weight + 1) + z] != 0)
            t.feasible[y][z] = true;
    return t;
  }
};

/// Sequential Problem 2 over connected subgraphs of at most opt.k
/// vertices with baseline sum <= max_baseline. opt.kernel picks the scalar
/// or bit-sliced kernel; the answer is a whole table, so a watch cell
/// (which ends a scan at its first hit) is rejected.
template <gf::GaloisField F>
Feasibility2D detect_scan2d_seq(const graph::Graph& g,
                                const std::vector<std::uint32_t>& baseline,
                                const std::vector<std::uint32_t>& weight,
                                std::uint32_t max_baseline,
                                const ScanOptions& opt, const F& f = F{}) {
  MIDAS_REQUIRE(opt.k >= 1 && opt.k <= 20, "k must be in [1,20]");
  const graph::VertexId n = g.num_vertices();
  MIDAS_REQUIRE(baseline.size() == n && weight.size() == n,
                "baseline and weight must have one entry per vertex");
  MIDAS_REQUIRE(opt.watch_j == 0 && opt.watch_z == 0,
                "scan2d builds the whole table: watch_j/watch_z must be 0");
  MIDAS_REQUIRE(max_baseline < UINT32_MAX, "max_baseline + 1 must fit");
  const std::uint32_t wmax = max_weight_sum(weight, opt.k);
  return Feasibility2D::from_cells(
      opt.k, max_baseline, wmax,
      detail_seq::scan_cells(
          g, {weight, &baseline, max_baseline + 1, wmax + 1}, opt, f));
}

/// midas_scan2d's answer: the table plus the run's clocks and faults.
struct MidasScan2DResult : Feasibility2D {
  double vtime = 0.0;
  double wall_s = 0.0;
  runtime::CommStats total_stats;
  std::vector<double> vclocks;
  std::vector<int> failed_ranks;
  int resumed_from_round = -1;
  Kernel kernel = Kernel::kScalar;  // the kernel the run resolved to
};

/// Distributed Problem 2 on the MIDAS engine: the scan recurrence with the
/// baseline axis, so it masks rank kills, speculates, checkpoints and
/// bit-slices like every other driver. The table is bit-identical to
/// detect_scan2d_seq for the same seed; messages carry both axes, i.e.
/// (max_baseline + 1) * (wmax + 1) * N2 values per boundary vertex per
/// size step.
template <gf::GaloisField F>
MidasScan2DResult midas_scan2d(const graph::Graph& g,
                               const partition::Partition& part,
                               const std::vector<std::uint32_t>& baseline,
                               const std::vector<std::uint32_t>& weight,
                               std::uint32_t max_baseline,
                               const MidasOptions& opt, const F& f = F{}) {
  detail::require_options(part.parts == opt.n1, "partition must have N1 parts");
  detail::require_options(
      baseline.size() == g.num_vertices() && weight.size() == g.num_vertices(),
      "baseline and weight must have one entry per vertex");
  MIDAS_REQUIRE(max_baseline < UINT32_MAX, "max_baseline + 1 must fit");
  const auto views = partition::build_part_views(g, part);
  // Fingerprinted: a snapshot must not resume on other inputs or cap.
  std::vector<std::uint64_t> in{max_baseline};
  in.insert(in.end(), baseline.begin(), baseline.end());
  in.insert(in.end(), weight.begin(), weight.end());
  const detail::LayeredRec<F> rec{
      f, opt, &weight, nullptr, runtime::fnv1a(std::as_bytes(std::span(in))),
      &baseline, max_baseline + 1};
  const detail::DriverRun run = detail::run_driver(views, opt, f, rec);
  const MidasResult& r = run.result;
  return {Feasibility2D::from_cells(opt.k, max_baseline, rec.width - 1,
                                    run.hits()),
          r.vtime, r.wall_s, r.total_stats, r.vclocks, r.failed_ranks,
          r.resumed_from_round, r.kernel};
}

/// Maximize an arbitrary F(W, B) over the feasible (B, W) cells. `score`
/// receives the *rounded* values; rescale inside if steps were used.
struct Scan2DOptimum {
  double score = 0.0;
  std::uint32_t baseline = 0;
  std::uint32_t weight = 0;
};
[[nodiscard]] inline Scan2DOptimum maximize_scan2d(
    const Feasibility2D& table,
    const std::function<double(std::uint32_t w, std::uint32_t b)>& score) {
  Scan2DOptimum best;
  for (std::uint32_t y = 0; y <= table.max_baseline; ++y) {
    for (std::uint32_t z = 0; z <= table.max_weight; ++z) {
      if (!table.feasible[y][z]) continue;
      const double s = score(z, y);
      if (s > best.score) {
        best.score = s;
        best.baseline = y;
        best.weight = z;
      }
    }
  }
  return best;
}

}  // namespace midas::core
