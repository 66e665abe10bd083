// Disease-outbreak detection with parametric scan statistics — the
// biosurveillance workload of the paper's introduction, run end to end on
// the distributed MIDAS engine.
//
//   ./outbreak_detection [--counties=120] [--size=5] [--risk=6]
//                        [--k=6] [--ranks=8] [--n1=4] [--seed=11]
//
// Case counts on a contact network -> excess-over-baseline weights
// (Knapsack-rounded) -> distributed (size, weight) feasibility via MIDAS
// -> expectation-based Poisson maximization -> witness extraction ->
// precision/recall against the injected outbreak.
#include <algorithm>
#include <cstdio>

#include "core/scan2d.hpp"
#include "core/witness.hpp"
#include "gf/gf256.hpp"
#include "partition/partition.hpp"
#include "scan/outbreak_sim.hpp"
#include "scan/scan_statistics.hpp"
#include "scan/traffic_sim.hpp"  // evaluate_detection
#include "util/args.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace midas;
  const Args args(argc, argv);
  scan::OutbreakSimConfig cfg;
  cfg.n_counties =
      static_cast<graph::VertexId>(args.get_int("counties", 100));
  cfg.outbreak_size = static_cast<int>(args.get_int("size", 5));
  cfg.relative_risk = args.get_double("risk", 6.0);
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 11));
  const int k = static_cast<int>(args.get_int("k", 5));
  const int ranks = static_cast<int>(args.get_int("ranks", 8));
  const int n1 = static_cast<int>(args.get_int("n1", 4));

  scan::OutbreakSim sim(cfg);
  double total_cases = 0, total_base = 0;
  for (double c : sim.cases()) total_cases += c;
  for (double b : sim.baselines()) total_base += b;
  std::printf("contact network: %u counties, %llu links; %.0f cases vs "
              "%.0f expected; injected outbreak: %d counties at %.1fx "
              "risk\n",
              sim.network().num_vertices(),
              static_cast<unsigned long long>(sim.network().num_edges()),
              total_cases, total_base, cfg.outbreak_size,
              cfg.relative_risk);

  // Event weights: excess over baseline, rounded to keep the DP narrow.
  scan::ScanProblem problem;
  problem.k = k;
  problem.statistic = scan::Statistic::kEBPoisson;
  problem.event = sim.excess_counts();
  problem.weight_step = scan::step_for_total(
      std::span<const double>(problem.event),
      static_cast<std::uint32_t>(args.get_int("rounded-total", 32)));

  core::MidasOptions opt;
  opt.k = k;
  opt.epsilon = 1e-4;
  opt.seed = cfg.seed;
  opt.n_ranks = ranks;
  opt.n1 = n1;
  opt.n2 = 8;
  const auto part = partition::ldg_partition(sim.network(), n1);

  Timer t;
  const auto best =
      scan::optimize_scan_midas(sim.network(), part, problem, opt);
  std::printf("EB-Poisson optimum: score %.3f at |S|=%d, rounded excess "
              "%u (step %.2f)   [distributed: N=%d N1=%d, %.0f ms wall]\n",
              best.score, best.size, best.weight, problem.weight_step,
              ranks, n1, t.elapsed_ms());

  const auto weights = scan::round_weights(
      std::span<const double>(problem.event), problem.weight_step);
  const auto detected = core::extract_connected_subgraph(
      sim.network(), weights, best.size, best.weight,
      {.epsilon = 1e-2, .seed = cfg.seed + 1});
  if (!detected) {
    std::printf("witness extraction failed\n");
    return 1;
  }
  std::printf("detected: ");
  for (auto v : *detected) std::printf("%u ", v);
  std::printf("\ninjected: ");
  for (auto v : sim.outbreak_cluster()) std::printf("%u ", v);
  const auto q =
      scan::evaluate_detection(*detected, sim.outbreak_cluster());
  std::printf("\nprecision %.2f  recall %.2f  f1 %.2f\n", q.precision,
              q.recall, q.f1);

  // Full Problem 2: Kulldorff with the *real* heterogeneous baselines
  // (coarsely rounded axes keep the 2-axis DP cheap).
  const double bstep = scan::step_for_total(
      std::span<const double>(sim.baselines()), 16);
  const double wstep =
      scan::step_for_total(std::span<const double>(sim.cases()), 16);
  const auto rb = scan::round_weights(
      std::span<const double>(sim.baselines()), bstep);
  const auto rw =
      scan::round_weights(std::span<const double>(sim.cases()), wstep);
  core::ScanOptions s2;
  s2.k = std::min(k, 4);
  s2.epsilon = 1e-3;
  s2.seed = cfg.seed;
  t.reset();
  gf::GF256 field;
  const auto table2 = core::detect_scan2d_seq(sim.network(), rb, rw,
                                              /*max_baseline=*/10, s2, field);
  const auto best2 = core::maximize_scan2d(
      table2, [&](std::uint32_t wz, std::uint32_t by) {
        const double W = wz * wstep, B = by * bstep;
        if (B <= 0 || B >= total_base || W > total_cases) return 0.0;
        return scan::kulldorff(W, B, total_cases, total_base);
      });
  std::printf("\nfull Problem 2 (Kulldorff, real baselines, size<=%d): "
              "score %.3f at baseline %.1f with %.1f cases (%.0f ms)\n",
              s2.k, best2.score, best2.baseline * bstep,
              best2.weight * wstep, t.elapsed_ms());
  return q.f1 >= 0.4 ? 0 : 1;
}
