// Full Problem 2: two-axis (baseline, weight) feasibility with
// heterogeneous baselines, against exhaustive enumeration.
#include <gtest/gtest.h>

#include "baseline/brute_force.hpp"
#include "core/scan2d.hpp"
#include "partition/partition.hpp"
#include "gf/gf256.hpp"
#include "graph/generators.hpp"
#include "scan/scan_statistics.hpp"
#include "util/rng.hpp"

namespace midas::core {
namespace {

/// Exhaustive (B, W) feasibility for connected subgraphs of size <= s_max
/// with B <= bcap.
std::vector<std::vector<bool>> brute_2d(
    const graph::Graph& g, const std::vector<std::uint32_t>& baseline,
    const std::vector<std::uint32_t>& weight, int s_max,
    std::uint32_t bcap, std::uint32_t wmax) {
  std::vector<std::vector<bool>> out(bcap + 1,
                                     std::vector<bool>(wmax + 1, false));
  baseline::enumerate_connected_subsets(
      g, s_max, [&](const std::vector<graph::VertexId>& subset) {
        std::uint32_t b = 0, w = 0;
        for (auto v : subset) {
          b += baseline[v];
          w += weight[v];
        }
        if (b <= bcap && w <= wmax) out[b][w] = true;
      });
  return out;
}

TEST(Scan2D, MatchesExhaustiveEnumeration) {
  gf::GF256 f;
  Xoshiro256 rng(31);
  for (int trial = 0; trial < 5; ++trial) {
    const graph::VertexId n = 7 + static_cast<graph::VertexId>(rng.below(3));
    const auto g = graph::erdos_renyi_gnp(n, 0.3, rng);
    std::vector<std::uint32_t> b(n), w(n);
    for (auto& x : b) x = 1 + static_cast<std::uint32_t>(rng.below(2));
    for (auto& x : w) x = static_cast<std::uint32_t>(rng.below(3));

    for (const Kernel kernel : {Kernel::kScalar, Kernel::kBitsliced}) {
      ScanOptions opt;
      opt.k = 3;
      const std::uint32_t max_baseline = 5;
      opt.epsilon = 1e-4;
      opt.seed = 100 + trial;
      opt.kernel = kernel;
      const auto table = detect_scan2d_seq(g, b, w, max_baseline, opt, f);
      const auto truth =
          brute_2d(g, b, w, opt.k, max_baseline, table.max_weight);
      for (std::uint32_t y = 0; y <= max_baseline; ++y)
        for (std::uint32_t z = 0; z <= table.max_weight; ++z)
          EXPECT_EQ(table.at(y, z), truth[y][z])
              << "trial=" << trial << " B=" << y << " W=" << z;
    }
  }
}

TEST(Scan2D, BaselineCapExcludesHeavyVertices) {
  gf::GF256 f;
  // Path 0-1-2; vertex 1 has baseline 10 > cap, so only {0}, {2} and no
  // multi-vertex subgraph through 1 fit.
  const auto g = graph::path_graph(3);
  const std::vector<std::uint32_t> b{1, 10, 1};
  const std::vector<std::uint32_t> w{2, 3, 4};
  ScanOptions opt;
  opt.k = 3;
  opt.epsilon = 1e-4;
  const auto table = detect_scan2d_seq(g, b, w, /*max_baseline=*/4, opt, f);
  EXPECT_TRUE(table.at(1, 2));   // {0}
  EXPECT_TRUE(table.at(1, 4));   // {2}
  EXPECT_FALSE(table.at(2, 6));  // {0,2} is disconnected
  for (std::uint32_t z = 0; z <= table.max_weight; ++z) {
    EXPECT_FALSE(table.at(2, z)) << "no connected pair fits the cap, z="
                                 << z;
  }
}

TEST(Scan2D, ParallelMatchesSequentialBitForBit) {
  gf::GF256 f;
  Xoshiro256 rng(41);
  for (int trial = 0; trial < 3; ++trial) {
    const graph::VertexId n = 8;
    const auto g = graph::erdos_renyi_gnp(n, 0.3, rng);
    std::vector<std::uint32_t> b(n), w(n);
    for (auto& x : b) x = 1 + static_cast<std::uint32_t>(rng.below(2));
    for (auto& x : w) x = static_cast<std::uint32_t>(rng.below(3));
    for (const Kernel kernel : {Kernel::kScalar, Kernel::kBitsliced}) {
      const std::uint32_t max_baseline = 5;
      ScanOptions sopt;
      sopt.k = 3;
      sopt.epsilon = 1e-3;
      sopt.seed = 200 + trial;
      sopt.kernel = kernel;
      const auto seq = detect_scan2d_seq(g, b, w, max_baseline, sopt, f);

      MidasOptions mopt;
      mopt.k = sopt.k;
      mopt.epsilon = sopt.epsilon;
      mopt.seed = sopt.seed;
      mopt.kernel = kernel;
      mopt.n_ranks = 4;
      mopt.n1 = 2;
      mopt.n2 = 2;
      const auto part = partition::block_partition(g, 2);
      const auto par = midas_scan2d(g, part, b, w, max_baseline, mopt, f);
      ASSERT_EQ(par.max_weight, seq.max_weight);
      for (std::uint32_t y = 0; y <= max_baseline; ++y)
        for (std::uint32_t z = 0; z <= seq.max_weight; ++z)
          EXPECT_EQ(par.at(y, z), seq.at(y, z))
              << "trial=" << trial << " B=" << y << " W=" << z;
    }
  }
}

TEST(Scan2D, UnitBaselinesReproduceTheScanTableBitForBit) {
  // With every baseline 1 a subgraph's baseline is its size, so the
  // (baseline, weight) table must be the (size, weight) scan table cell
  // for cell on the same seed — the baseline axis adds a variable to the
  // generating function and changes nothing else. Caps below and above k
  // cover the truncated axis.
  gf::GF256 f;
  Xoshiro256 rng(53);
  const graph::VertexId n = 10;
  const auto g = graph::erdos_renyi_gnp(n, 0.3, rng);
  const std::vector<std::uint32_t> ones(n, 1);
  std::vector<std::uint32_t> w(n);
  for (auto& x : w) x = static_cast<std::uint32_t>(rng.below(3));
  const auto part = partition::block_partition(g, 2);
  for (const Kernel kernel : {Kernel::kScalar, Kernel::kBitsliced}) {
    for (const std::uint32_t cap : {2u, 4u, 6u}) {
      ScanOptions sopt;
      sopt.k = 4;
      sopt.max_rounds = 3;  // few rounds: misses must line up too
      sopt.seed = 300 + cap;
      sopt.kernel = kernel;
      MidasOptions mopt;
      mopt.k = sopt.k;
      mopt.max_rounds = sopt.max_rounds;
      mopt.seed = sopt.seed;
      mopt.kernel = kernel;
      mopt.n_ranks = 4;
      mopt.n1 = 2;
      mopt.n2 = 4;
      const auto scan = detect_scan_seq(g, w, sopt, f);
      const auto seq2 = detect_scan2d_seq(g, ones, w, cap, sopt, f);
      const auto par2 = midas_scan2d(g, part, ones, w, cap, mopt, f);
      const auto pscan = midas_scan(g, part, w, mopt, f);
      ASSERT_EQ(pscan.table.feasible, scan.feasible);
      ASSERT_EQ(seq2.max_weight, scan.max_weight);
      ASSERT_EQ(par2.max_weight, scan.max_weight);
      const std::uint32_t top = std::min<std::uint32_t>(sopt.k, cap);
      for (std::uint32_t y = 0; y <= top; ++y)
        for (std::uint32_t z = 0; z <= scan.max_weight; ++z) {
          const bool want = scan.at(static_cast<int>(y), z);
          EXPECT_EQ(seq2.feasible[y][z], want)
              << "seq cap=" << cap << " B=" << y << " W=" << z;
          EXPECT_EQ(par2.feasible[y][z], want)
              << "par cap=" << cap << " B=" << y << " W=" << z;
        }
      for (std::uint32_t y = top + 1; y <= cap; ++y)
        for (std::uint32_t z = 0; z <= scan.max_weight; ++z) {
          EXPECT_FALSE(seq2.feasible[y][z]) << "no subgraph is larger than k";
          EXPECT_FALSE(par2.feasible[y][z]) << "no subgraph is larger than k";
        }
    }
  }
}

TEST(Scan2D, ZeroAndOverCapBaselinesMatchExhaustiveEnumeration) {
  // Baselines in [0, 6] against a cap of 4: zero-baseline vertices land
  // in row 0, and a vertex over the cap has no leaf at all, so no
  // subgraph through it may appear — on both kernels, seq and distributed.
  gf::GF256 f;
  Xoshiro256 rng(67);
  for (int trial = 0; trial < 3; ++trial) {
    const graph::VertexId n = 8;
    const auto g = graph::erdos_renyi_gnp(n, 0.35, rng);
    std::vector<std::uint32_t> b(n), w(n);
    for (auto& x : b) x = static_cast<std::uint32_t>(rng.below(7));
    for (auto& x : w) x = static_cast<std::uint32_t>(rng.below(3));
    const std::uint32_t cap = 4;
    const auto part = partition::block_partition(g, 2);
    for (const Kernel kernel : {Kernel::kScalar, Kernel::kBitsliced}) {
      ScanOptions sopt;
      sopt.k = 3;
      sopt.epsilon = 1e-4;
      sopt.seed = 400 + trial;
      sopt.kernel = kernel;
      MidasOptions mopt;
      mopt.k = sopt.k;
      mopt.epsilon = sopt.epsilon;
      mopt.seed = sopt.seed;
      mopt.kernel = kernel;
      mopt.n_ranks = 2;
      mopt.n1 = 2;
      mopt.n2 = 4;
      const auto seq = detect_scan2d_seq(g, b, w, cap, sopt, f);
      const auto par = midas_scan2d(g, part, b, w, cap, mopt, f);
      const auto truth = brute_2d(g, b, w, sopt.k, cap, seq.max_weight);
      for (std::uint32_t y = 0; y <= cap; ++y)
        for (std::uint32_t z = 0; z <= seq.max_weight; ++z) {
          EXPECT_EQ(seq.at(y, z), truth[y][z])
              << "seq trial=" << trial << " B=" << y << " W=" << z;
          EXPECT_EQ(par.at(y, z), truth[y][z])
              << "par trial=" << trial << " B=" << y << " W=" << z;
        }
    }
  }
}

TEST(Scan2D, RejectsAWatchCellAndAWrappingCap) {
  // The table is the answer; a watch cell would end the run at its first
  // hit and leave the rest of the table unfinished. A cap of UINT32_MAX
  // would wrap the baseline axis height to 0.
  gf::GF256 f;
  const auto g = graph::path_graph(3);
  const std::vector<std::uint32_t> b{1, 1, 1}, w{1, 1, 1};
  ScanOptions opt;
  opt.k = 2;
  opt.watch_j = 1;
  opt.watch_z = 1;
  EXPECT_THROW((void)detect_scan2d_seq(g, b, w, 3, opt, f),
               std::invalid_argument);
  opt.watch_j = 0;
  opt.watch_z = 0;
  EXPECT_THROW((void)detect_scan2d_seq(g, b, w, UINT32_MAX, opt, f),
               std::invalid_argument);
  MidasOptions mopt;
  mopt.k = 2;
  mopt.n_ranks = 2;
  const auto part = partition::block_partition(g, mopt.n1);
  EXPECT_THROW((void)midas_scan2d(g, part, b, w, UINT32_MAX, mopt, f),
               std::invalid_argument);
}

TEST(Scan2D, KulldorffWithRealBaselines) {
  // A high-event low-baseline cluster must beat a high-event
  // high-baseline one under Kulldorff (the statistic normalizes by B).
  graph::GraphBuilder gb(6);
  gb.add_edge(0, 1);  // cluster A: anomalous (low baseline, high events)
  gb.add_edge(2, 3);  // cluster B: busy but proportional
  gb.add_edge(4, 5);  // background
  const auto g = gb.build();
  const std::vector<std::uint32_t> b{1, 1, 6, 6, 2, 2};
  const std::vector<std::uint32_t> w{5, 5, 7, 7, 1, 1};
  ScanOptions opt;
  opt.k = 2;
  opt.epsilon = 1e-4;
  gf::GF256 f;
  const auto table = detect_scan2d_seq(g, b, w, /*max_baseline=*/12, opt, f);
  double w_total = 0, b_total = 0;
  for (auto x : w) w_total += x;
  for (auto x : b) b_total += x;
  const auto best = maximize_scan2d(
      table, [&](std::uint32_t wz, std::uint32_t by) {
        if (by == 0 || by >= b_total) return 0.0;
        return scan::kulldorff(wz, by, w_total, b_total);
      });
  EXPECT_EQ(best.baseline, 2u);  // cluster A: B = 1+1
  EXPECT_EQ(best.weight, 10u);   // W = 5+5
}

}  // namespace
}  // namespace midas::core
