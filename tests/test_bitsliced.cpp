// BitslicedGF and the bit-sliced detection kernels.
//
// Two layers of guarantees:
//  - algebra: every BitslicedGF primitive agrees with GFSmall lane by lane
//    for every field width l in [2, 16] (and with GF256 for l = 8);
//  - kernels: the bit-sliced k-path / k-tree / scan detectors are
//    bit-exact against the scalar ones — identical per-round accumulators
//    sequentially, and identical results, virtual clocks, halo traffic,
//    snapshots, and failover outcomes in the distributed engines. A
//    snapshot written under one kernel must resume under the other.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <vector>

#include "core/detect_par.hpp"
#include "core/detect_seq.hpp"
#include "gf/bitsliced.hpp"
#include "gf/gf256.hpp"
#include "gf/gf64.hpp"
#include "gf/gfsmall.hpp"
#include "graph/generators.hpp"
#include "partition/multilevel.hpp"
#include "partition/partition.hpp"
#include "runtime/checkpoint.hpp"
#include "util/rng.hpp"

namespace fs = std::filesystem;

namespace midas::gf {
namespace {

using word = BitslicedGF::word;
using value_type = BitslicedGF::value_type;

/// Fill a block with 64 random field elements, returning them lane-major.
std::vector<value_type> random_block(const GFSmall& f, BitslicedGF& bs,
                                     word* block, Xoshiro256& rng) {
  std::vector<value_type> lanes(BitslicedGF::kLanes);
  for (int b = 0; b < BitslicedGF::kLanes; ++b)
    lanes[static_cast<std::size_t>(b)] =
        static_cast<value_type>(rng.below(f.order()));
  bs.pack_lanes(block, lanes.data(), BitslicedGF::kLanes);
  return lanes;
}

TEST(BitslicedGF, ConstructorValidatesWidthAndModulus) {
  EXPECT_THROW(BitslicedGF(1, 0x7), std::invalid_argument);
  EXPECT_THROW(BitslicedGF(17, 0x3ffff), std::invalid_argument);
  // Degree of the modulus must be exactly l.
  EXPECT_THROW(BitslicedGF(8, 0x1b), std::invalid_argument);
  EXPECT_NO_THROW(BitslicedGF(8, irreducible_poly(8)));
}

TEST(BitslicedGF, MirrorsGF256) {
  GF256 f;
  BitslicedGF bs(f);
  EXPECT_EQ(bs.bits(), 8);
  EXPECT_EQ(bs.modulus(), f.modulus());
}

class BitslicedVsGFSmall : public ::testing::TestWithParam<int> {};

TEST_P(BitslicedVsGFSmall, PackUnpackRoundtrip) {
  const int l = GetParam();
  GFSmall f(l);
  BitslicedGF bs(f);
  Xoshiro256 rng(11u + static_cast<std::uint64_t>(l));
  std::vector<word> block(static_cast<std::size_t>(bs.words()));
  const auto lanes = random_block(f, bs, block.data(), rng);
  for (int b = 0; b < BitslicedGF::kLanes; ++b)
    EXPECT_EQ(bs.lane(block.data(), b), lanes[static_cast<std::size_t>(b)]);
  std::vector<value_type> back(BitslicedGF::kLanes);
  bs.unpack_lanes(back.data(), block.data(), BitslicedGF::kLanes);
  EXPECT_EQ(back, lanes);
  // Partial pack clears the remaining lanes.
  bs.pack_lanes(block.data(), lanes.data(), 5);
  for (int b = 5; b < BitslicedGF::kLanes; ++b)
    EXPECT_EQ(bs.lane(block.data(), b), 0u);
}

TEST_P(BitslicedVsGFSmall, AddAndMulMatchLaneByLane) {
  const int l = GetParam();
  GFSmall f(l);
  BitslicedGF bs(f);
  Xoshiro256 rng(23u + static_cast<std::uint64_t>(l));
  const auto L = static_cast<std::size_t>(bs.words());
  std::vector<word> a(L), b(L), sum(L), prod(L);
  for (int trial = 0; trial < 8; ++trial) {
    const auto la = random_block(f, bs, a.data(), rng);
    const auto lb = random_block(f, bs, b.data(), rng);
    std::copy(a.begin(), a.end(), sum.begin());
    bs.add_into(sum.data(), b.data());
    bs.mul(prod.data(), a.data(), b.data());
    for (int q = 0; q < BitslicedGF::kLanes; ++q) {
      const auto i = static_cast<std::size_t>(q);
      EXPECT_EQ(bs.lane(sum.data(), q), f.add(la[i], lb[i]));
      EXPECT_EQ(bs.lane(prod.data(), q), f.mul(la[i], lb[i]))
          << "l=" << l << " lane " << q;
    }
  }
}

TEST_P(BitslicedVsGFSmall, MatrixMatchesConstantMul) {
  const int l = GetParam();
  GFSmall f(l);
  BitslicedGF bs(f);
  Xoshiro256 rng(37u + static_cast<std::uint64_t>(l));
  const auto L = static_cast<std::size_t>(bs.words());
  std::vector<word> x(L), y(L);
  for (int trial = 0; trial < 8; ++trial) {
    const auto c = static_cast<value_type>(rng.below(f.order()));
    const auto m = bs.matrix(c);
    const auto lx = random_block(f, bs, x.data(), rng);
    bs.mul_matrix(y.data(), m, x.data());
    for (int q = 0; q < BitslicedGF::kLanes; ++q)
      EXPECT_EQ(bs.lane(y.data(), q),
                f.mul(c, lx[static_cast<std::size_t>(q)]));
  }
}

TEST_P(BitslicedVsGFSmall, BroadcastAndFoldMatchScalarSum) {
  const int l = GetParam();
  GFSmall f(l);
  BitslicedGF bs(f);
  Xoshiro256 rng(41u + static_cast<std::uint64_t>(l));
  const auto L = static_cast<std::size_t>(bs.words());
  std::vector<word> x(L);
  const auto c = static_cast<value_type>(1 + rng.below(f.order() - 1));
  const word mask = rng();
  bs.broadcast(x.data(), c, mask);
  for (int q = 0; q < BitslicedGF::kLanes; ++q)
    EXPECT_EQ(bs.lane(x.data(), q), (mask >> q) & 1u ? c : 0u);
  // fold_xor == XOR of the lanes, full and masked.
  const auto lanes = random_block(f, bs, x.data(), rng);
  value_type all = 0, some = 0;
  const word m2 = rng();
  for (int q = 0; q < BitslicedGF::kLanes; ++q) {
    all = f.add(all, lanes[static_cast<std::size_t>(q)]);
    if ((m2 >> q) & 1u)
      some = f.add(some, lanes[static_cast<std::size_t>(q)]);
  }
  EXPECT_EQ(bs.fold_xor(x.data()), all);
  EXPECT_EQ(bs.fold_xor(x.data(), m2), some);
}

INSTANTIATE_TEST_SUITE_P(AllWidths, BitslicedVsGFSmall,
                         ::testing::Range(2, 17));

TEST(BitslicedGF, LiveMaskMatchesInnerProductParity) {
  Xoshiro256 rng(59);
  for (int trial = 0; trial < 64; ++trial) {
    const auto v = static_cast<std::uint32_t>(rng());
    // Aligned, unaligned, and short blocks all reduce to one parity per
    // lane.
    for (const std::uint64_t base :
         {std::uint64_t{0}, std::uint64_t{64}, std::uint64_t{1024},
          std::uint64_t{3}, std::uint64_t{70}, rng() & 0xffffu}) {
      for (const int lanes : {64, 37, 5, 1}) {
        const word m = BitslicedGF::live_mask(v, base, lanes);
        for (int b = 0; b < 64; ++b) {
          const bool expect_live =
              b < lanes &&
              (std::popcount(v & static_cast<std::uint32_t>(
                                     base + static_cast<std::uint64_t>(b))) &
               1) == 0;
          EXPECT_EQ(((m >> b) & 1u) != 0, expect_live)
              << "v=" << v << " base=" << base << " lane " << b;
        }
      }
    }
  }
}

/// Transpose `lanes` values into l planes one bit at a time: the
/// reference both transpose implementations must match.
template <typename Vt>
std::vector<word> reference_pack(const std::vector<Vt>& vals, int l) {
  std::vector<word> block(static_cast<std::size_t>(l), 0);
  for (std::size_t b = 0; b < vals.size(); ++b)
    for (int p = 0; p < l; ++p)
      if ((vals[b] >> p) & 1u) block[static_cast<std::size_t>(p)] |= word{1}
                                                                      << b;
  return block;
}

using PackFn8 = void (*)(word*, const std::uint8_t*, int, int) noexcept;
using PackFn16 = void (*)(word*, const std::uint16_t*, int, int) noexcept;
using UnpackFn8 = void (*)(std::uint8_t*, const word*, int, int) noexcept;
using UnpackFn16 = void (*)(std::uint16_t*, const word*, int, int) noexcept;

/// For every lane count in [1, 64] and width l in [2, 16]: pack matches
/// the bit loop (clearing lanes past the count), unpack writes back
/// exactly the packed values and nothing past them. Inputs are sized to
/// the lane count, so an over-read shows under ASan.
template <typename Vt, typename Pack, typename Unpack>
void check_transposes(Pack pack, Unpack unpack, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const int value_bits = 8 * static_cast<int>(sizeof(Vt));
  for (int l = 2; l <= 16; ++l)
    for (int lanes = 1; lanes <= BitslicedGF::kLanes; ++lanes) {
      const int bits = std::min(l, value_bits);
      std::vector<Vt> vals(static_cast<std::size_t>(lanes));
      for (auto& x : vals) x = static_cast<Vt>(rng.below(1u << bits));
      std::vector<word> block(static_cast<std::size_t>(l), ~word{0});
      pack(block.data(), vals.data(), lanes, l);
      ASSERT_EQ(block, reference_pack(vals, l))
          << "pack l=" << l << " lanes=" << lanes;
      std::vector<Vt> back(BitslicedGF::kLanes, static_cast<Vt>(0xA5A5));
      unpack(back.data(), block.data(), lanes, l);
      for (int b = 0; b < BitslicedGF::kLanes; ++b)
        ASSERT_EQ(back[static_cast<std::size_t>(b)],
                  b < lanes ? vals[static_cast<std::size_t>(b)]
                            : static_cast<Vt>(0xA5A5))
            << "unpack l=" << l << " lanes=" << lanes << " lane " << b;
    }
}

TEST(BitslicedTranspose, DeltaSwapMatchesTheBitLoop) {
  check_transposes<std::uint8_t>(PackFn8{detail_bs::pack_swap},
                                 UnpackFn8{detail_bs::unpack_swap}, 61);
  check_transposes<std::uint16_t>(PackFn16{detail_bs::pack_swap},
                                  UnpackFn16{detail_bs::unpack_swap}, 62);
}

TEST(BitslicedTranspose, Avx512MatchesTheBitLoop) {
  if (!detail_bs::avx512_transposes())
    GTEST_SKIP() << "host has no AVX-512BW";
  check_transposes<std::uint8_t>(PackFn8{detail_bs::pack_avx512},
                                 UnpackFn8{detail_bs::unpack_avx512}, 63);
  check_transposes<std::uint16_t>(PackFn16{detail_bs::pack_avx512},
                                  UnpackFn16{detail_bs::unpack_avx512}, 64);
}

}  // namespace
}  // namespace midas::gf

// ---------------------------------------------------------------------------
// Kernel choice: resolve_kernel is a pure function of the query's shape
// ---------------------------------------------------------------------------

namespace midas::core {
namespace {

/// A distributed engine's phase shape on a bit-sliceable field.
KernelShape engine(bool gfni, bool fast_transposes, bool convolution,
                   std::uint64_t lanes, bool byte_rows = true) {
  return {.bitsliceable = true,
          .byte_rows = byte_rows,
          .gfni = gfni,
          .fast_transposes = fast_transposes,
          .sequential = false,
          .convolution = convolution,
          .lanes = lanes};
}

constexpr std::uint64_t kLanes[] = {1, 8, 16, 64};

TEST(ResolveKernel, ExplicitRequestsAreKeptAndAutoNeverSurvives) {
  for (const bool gfni : {false, true})
    for (const bool fast : {false, true})
      for (const bool convolution : {false, true})
        for (const std::uint64_t lanes : kLanes) {
          const KernelShape s = engine(gfni, fast, convolution, lanes);
          EXPECT_EQ(resolve_kernel(Kernel::kScalar, s), Kernel::kScalar);
          EXPECT_EQ(resolve_kernel(Kernel::kBitsliced, s),
                    Kernel::kBitsliced);
          EXPECT_NE(resolve_kernel(Kernel::kAuto, s), Kernel::kAuto);
        }
  KernelShape wide = engine(false, true, false, 16);
  wide.bitsliceable = false;
  EXPECT_EQ(resolve_kernel(Kernel::kAuto, wide), Kernel::kScalar);
  EXPECT_THROW((void)resolve_kernel(Kernel::kBitsliced, wide),
               InvalidOptionsError);
}

TEST(ResolveKernel, AutoFollowsTheMeasuredRule) {
  const auto pick = [](bool gfni, bool fast, bool convolution,
                       std::uint64_t lanes) {
    return resolve_kernel(Kernel::kAuto,
                          engine(gfni, fast, convolution, lanes));
  };
  for (const bool fast : {false, true}) {
    // The sequential detectors always go bit-sliced, whatever the host.
    for (const bool gfni : {false, true}) {
      KernelShape seq = engine(gfni, fast, false, 1);
      seq.sequential = true;
      EXPECT_EQ(resolve_kernel(Kernel::kAuto, seq), Kernel::kBitsliced);
    }
    for (const std::uint64_t lanes : kLanes) {
      // GF(2^8) rows on GFNI: scalar on every recurrence and lane count,
      // one lane (an engine run at N2 = 1) included.
      EXPECT_EQ(pick(true, fast, false, lanes), Kernel::kScalar);
      EXPECT_EQ(pick(true, fast, true, lanes), Kernel::kScalar);
      // Table rows: bit-sliced for convolutions, with either transpose.
      EXPECT_EQ(pick(false, fast, true, lanes), Kernel::kBitsliced);
      EXPECT_EQ(resolve_kernel(Kernel::kAuto,
                               engine(false, fast, true, lanes, false)),
                Kernel::kBitsliced);
      // Elsewhere scalar, except 16-bit rows against full 64-lane blocks
      // on AVX-512 transposes.
      EXPECT_EQ(pick(false, fast, false, lanes), Kernel::kScalar);
      EXPECT_EQ(resolve_kernel(Kernel::kAuto,
                               engine(false, fast, false, lanes, false)),
                fast && lanes >= 64 ? Kernel::kBitsliced : Kernel::kScalar);
    }
  }
}

TEST(ResolveKernel, FieldShapesReadTheFieldAndHost) {
  const KernelShape g = kernel_shape(gf::GF256{});
  EXPECT_TRUE(g.bitsliceable && g.byte_rows && g.sequential);
  EXPECT_EQ(g.gfni, gf::gfni_rows());
  EXPECT_EQ(g.fast_transposes, gf::detail_bs::avx512_transposes());
  const KernelShape s = kernel_shape(gf::GFSmall(7), true, 16);
  EXPECT_TRUE(s.bitsliceable && s.convolution);
  EXPECT_FALSE(s.byte_rows || s.gfni || s.sequential);
  EXPECT_EQ(s.lanes, 16u);
}

}  // namespace
}  // namespace midas::core

// ---------------------------------------------------------------------------
// Sequential kernels: scalar vs bitsliced bit-exactness
// ---------------------------------------------------------------------------

namespace midas::core {
namespace {

using graph::Graph;

DetectOptions seq_opts(int k, Kernel kernel, std::uint64_t seed = 7) {
  DetectOptions o;
  o.k = k;
  o.seed = seed;
  o.max_rounds = 4;
  o.early_exit = false;  // compare every round, not just the first hit
  o.kernel = kernel;
  return o;
}

TEST(BitslicedSeq, KPathRoundAccumulatorsMatchScalarAllWidths) {
  Xoshiro256 rng(101);
  for (int l = 2; l <= 16; ++l) {
    gf::GFSmall f(l);
    const Graph g = graph::erdos_renyi_gnp(
        18 + static_cast<graph::VertexId>(rng.below(8)), 0.2, rng);
    for (const int k : {3, 5, 7}) {
      const auto scalar =
          detect_kpath_seq(g, seq_opts(k, Kernel::kScalar, 50 + l), f);
      const auto sliced =
          detect_kpath_seq(g, seq_opts(k, Kernel::kBitsliced, 50 + l), f);
      EXPECT_EQ(sliced.round_totals, scalar.round_totals)
          << "l=" << l << " k=" << k;
      EXPECT_EQ(sliced.found_round, scalar.found_round);
      EXPECT_EQ(sliced.iterations, scalar.iterations);
    }
  }
}

TEST(BitslicedSeq, KPathMatchesScalarOnGF256) {
  gf::GF256 f;
  Xoshiro256 rng(202);
  for (int trial = 0; trial < 4; ++trial) {
    const Graph g = graph::erdos_renyi_gnp(24, 0.18, rng);
    const int k = 4 + trial;
    const auto scalar =
        detect_kpath_seq(g, seq_opts(k, Kernel::kScalar, 90 + trial), f);
    const auto sliced =
        detect_kpath_seq(g, seq_opts(k, Kernel::kBitsliced, 90 + trial), f);
    EXPECT_EQ(sliced.round_totals, scalar.round_totals) << "trial " << trial;
  }
}

TEST(BitslicedSeq, KTreeRoundAccumulatorsMatchScalar) {
  Xoshiro256 rng(303);
  for (const int l : {2, 7, 8, 13, 16}) {
    gf::GFSmall f(l);
    const Graph g = graph::erdos_renyi_gnp(20, 0.25, rng);
    for (const int k : {3, 4, 6}) {
      const Graph tmpl =
          graph::random_tree(static_cast<graph::VertexId>(k), rng);
      TreeDecomposition td(tmpl, 0);
      const auto scalar =
          detect_ktree_seq(g, td, seq_opts(k, Kernel::kScalar, 70 + l), f);
      const auto sliced =
          detect_ktree_seq(g, td, seq_opts(k, Kernel::kBitsliced, 70 + l), f);
      EXPECT_EQ(sliced.round_totals, scalar.round_totals)
          << "l=" << l << " k=" << k;
      EXPECT_EQ(sliced.found_round, scalar.found_round);
    }
  }
}

TEST(BitslicedSeq, ScanTableMatchesScalar) {
  Xoshiro256 rng(404);
  for (const int l : {3, 8, 12}) {
    gf::GFSmall f(l);
    const Graph g = graph::erdos_renyi_gnp(14, 0.25, rng);
    std::vector<std::uint32_t> w(g.num_vertices());
    for (auto& x : w) x = static_cast<std::uint32_t>(rng.below(3));
    ScanOptions o;
    o.k = 4;
    o.seed = 900 + static_cast<std::uint64_t>(l);
    o.max_rounds = 1;  // the table is already deterministic per round
    o.kernel = Kernel::kScalar;
    const auto scalar = detect_scan_seq(g, w, o, f);
    o.kernel = Kernel::kBitsliced;
    const auto sliced = detect_scan_seq(g, w, o, f);
    EXPECT_EQ(sliced.feasible, scalar.feasible) << "l=" << l;
    EXPECT_EQ(sliced.max_weight, scalar.max_weight);
  }
}

TEST(BitslicedSeq, ExplicitBitslicedOnWideFieldIsAnError) {
  gf::GF64 f;
  Xoshiro256 rng(505);
  const Graph g = graph::erdos_renyi_gnp(12, 0.3, rng);
  EXPECT_THROW(detect_kpath_seq(g, seq_opts(4, Kernel::kBitsliced), f),
               std::invalid_argument);
  // kAuto silently falls back to scalar.
  EXPECT_NO_THROW(detect_kpath_seq(g, seq_opts(4, Kernel::kAuto), f));
}

// ---------------------------------------------------------------------------
// Distributed engines: kernels must agree on results AND virtual time
// ---------------------------------------------------------------------------

MidasOptions par_opts(int k, int n_ranks, int n1, std::uint32_t n2,
                      Kernel kernel, std::uint64_t seed = 7) {
  MidasOptions o;
  o.k = k;
  o.epsilon = 1e-3;
  o.seed = seed;
  o.n_ranks = n_ranks;
  o.n1 = n1;
  o.n2 = n2;
  o.kernel = kernel;
  return o;
}

TEST(BitslicedPar, KPathKernelsAgreeOnResultsAndClocks) {
  gf::GF256 f;
  Xoshiro256 rng(606);
  Xoshiro256 wrng(6060);  // vertex weights of the weighted k-path runs
  // n2 = 5 makes phase bases non-multiples of 64, exercising the
  // unaligned live_mask path; n2 = 64 the aligned fast path.
  for (const auto& [n_ranks, n1, n2] :
       {std::tuple<int, int, std::uint32_t>{4, 2, 5},
        std::tuple<int, int, std::uint32_t>{4, 4, 64},
        std::tuple<int, int, std::uint32_t>{6, 3, 16},
        std::tuple<int, int, std::uint32_t>{2, 1, 7}}) {
    const Graph g = graph::erdos_renyi_gnp(
        20 + static_cast<graph::VertexId>(rng.below(8)), 0.2, rng);
    const auto part = partition::multilevel_partition(g, n1);
    const auto scalar = midas_kpath(
        g, part, par_opts(5, n_ranks, n1, n2, Kernel::kScalar), f);
    const auto sliced = midas_kpath(
        g, part, par_opts(5, n_ranks, n1, n2, Kernel::kBitsliced), f);
    EXPECT_EQ(sliced.found, scalar.found) << "N=" << n_ranks;
    EXPECT_EQ(sliced.found_round, scalar.found_round);
    EXPECT_EQ(sliced.rounds_run, scalar.rounds_run);
    // Identical charges and message sizes => identical modeled time.
    EXPECT_EQ(sliced.vtime, scalar.vtime);
    EXPECT_EQ(sliced.vclocks, scalar.vclocks);

    // The weighted k-path honours the kernel too.
    std::vector<std::uint32_t> w(g.num_vertices());
    for (auto& x : w) x = static_cast<std::uint32_t>(wrng.below(3));
    const auto wscalar = midas_weighted_kpath(
        g, part, w, par_opts(5, n_ranks, n1, n2, Kernel::kScalar), f);
    const auto wsliced = midas_weighted_kpath(
        g, part, w, par_opts(5, n_ranks, n1, n2, Kernel::kBitsliced), f);
    EXPECT_EQ(wsliced.feasible_weight, wscalar.feasible_weight);
    EXPECT_EQ(wsliced.max_weight, wscalar.max_weight);
    EXPECT_EQ(wsliced.vtime, wscalar.vtime);
  }
}

TEST(BitslicedPar, KTreeKernelsAgreeOnResultsAndClocks) {
  gf::GF256 f;
  Xoshiro256 rng(707);
  const Graph g = graph::erdos_renyi_gnp(22, 0.25, rng);
  for (const int k : {4, 6}) {
    const Graph tmpl =
        graph::random_tree(static_cast<graph::VertexId>(k), rng);
    TreeDecomposition td(tmpl, 0);
    const auto part = partition::multilevel_partition(g, 2);
    const auto scalar = midas_ktree(
        g, part, td, par_opts(k, 4, 2, 5, Kernel::kScalar), f);
    const auto sliced = midas_ktree(
        g, part, td, par_opts(k, 4, 2, 5, Kernel::kBitsliced), f);
    EXPECT_EQ(sliced.found, scalar.found) << "k=" << k;
    EXPECT_EQ(sliced.found_round, scalar.found_round);
    EXPECT_EQ(sliced.vtime, scalar.vtime);
    EXPECT_EQ(sliced.vclocks, scalar.vclocks);
  }
}

TEST(BitslicedPar, ScanKernelsAgreeOnTableAndClocks) {
  gf::GF256 f;
  Xoshiro256 rng(808);
  const Graph g = graph::erdos_renyi_gnp(14, 0.25, rng);
  std::vector<std::uint32_t> w(g.num_vertices());
  for (auto& x : w) x = static_cast<std::uint32_t>(rng.below(3));
  const auto part = partition::multilevel_partition(g, 2);
  for (const std::uint32_t n2 : {std::uint32_t{5}, std::uint32_t{8}}) {
    auto opt = par_opts(4, 4, 2, n2, Kernel::kScalar);
    opt.max_rounds = 1;
    const auto scalar = midas_scan(g, part, w, opt, f);
    opt.kernel = Kernel::kBitsliced;
    const auto sliced = midas_scan(g, part, w, opt, f);
    EXPECT_EQ(sliced.table.feasible, scalar.table.feasible) << "n2=" << n2;
    EXPECT_EQ(sliced.vtime, scalar.vtime);
    EXPECT_EQ(sliced.vclocks, scalar.vclocks);
  }
}

TEST(BitslicedPar, EnginesReportTheKernelTheyResolved) {
  // The driver resolves kAuto from its own recurrence and schedule and
  // reports the result; explicit requests come back as asked.
  Xoshiro256 rng(909);
  const Graph g = graph::erdos_renyi_gnp(16, 0.25, rng);
  std::vector<std::uint32_t> w(g.num_vertices());
  for (auto& x : w) x = static_cast<std::uint32_t>(1 + rng.below(2));
  const auto part = partition::multilevel_partition(g, 2);
  auto check = [&](const auto& f) {
    for (const std::uint32_t n2 : {1u, 8u, 64u}) {
      auto opt = par_opts(4, 4, 2, n2, Kernel::kAuto);
      opt.max_rounds = 1;
      const std::uint64_t lanes = std::min<std::uint64_t>(n2, 16);
      EXPECT_EQ(midas_kpath(g, part, opt, f).kernel,
                resolve_kernel(Kernel::kAuto, kernel_shape(f, false, lanes)))
          << "n2=" << n2;
      EXPECT_EQ(midas_scan(g, part, w, opt, f).kernel,
                resolve_kernel(Kernel::kAuto, kernel_shape(f, true, lanes)))
          << "n2=" << n2;
      for (const Kernel k : {Kernel::kScalar, Kernel::kBitsliced}) {
        opt.kernel = k;
        EXPECT_EQ(midas_kpath(g, part, opt, f).kernel, k);
        EXPECT_EQ(midas_scan(g, part, w, opt, f).kernel, k);
      }
    }
  };
  check(gf::GF256{});
  check(gf::GFSmall(7));
}

// ---------------------------------------------------------------------------
// Snapshots are kernel-portable; failover is kernel-independent
// ---------------------------------------------------------------------------

std::string fresh_dir(const std::string& name) {
  const fs::path p =
      fs::temp_directory_path() / ("midas_test_bitsliced_" + name);
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

TEST(BitslicedPar, SnapshotWrittenUnderOneKernelResumesUnderTheOther) {
  gf::GF256 f;
  Xoshiro256 rng(909);
  const Graph g = graph::erdos_renyi_gnp(24, 0.25, rng);
  const auto part = partition::multilevel_partition(g, 2);
  auto base = par_opts(4, 4, 2, 4, Kernel::kScalar, 91);
  base.max_rounds = 4;
  base.early_exit = false;
  const auto clean = midas_kpath(g, part, base, f);

  for (const auto& [writer, resumer, tag] :
       {std::tuple<Kernel, Kernel, const char*>{
            Kernel::kScalar, Kernel::kBitsliced, "s2b"},
        std::tuple<Kernel, Kernel, const char*>{
            Kernel::kBitsliced, Kernel::kScalar, "b2s"}}) {
    auto wr = base;
    wr.kernel = writer;
    wr.checkpoint.dir = fresh_dir(std::string("portable_") + tag);
    wr.checkpoint.every_rounds = 2;
    (void)midas_kpath(g, part, wr, f);
    ASSERT_FALSE(runtime::CheckpointStore(wr.checkpoint.dir)
                     .snapshots()
                     .empty());
    auto rs = wr;
    rs.kernel = resumer;
    rs.checkpoint.resume = true;
    const auto res = midas_kpath(g, part, rs, f);
    EXPECT_GE(res.resumed_from_round, 0) << tag;
    EXPECT_EQ(res.found, clean.found) << tag;
    EXPECT_EQ(res.found_round, clean.found_round) << tag;
    EXPECT_EQ(res.vtime, clean.vtime) << tag;
    EXPECT_EQ(res.vclocks, clean.vclocks) << tag;
  }
}

TEST(BitslicedPar, FailoverOutcomeIsKernelIndependent) {
  gf::GF256 f;
  Xoshiro256 rng(1010);
  const Graph g = graph::erdos_renyi_gnp(22, 0.25, rng);
  const auto part = partition::multilevel_partition(g, 2);
  auto opt = par_opts(4, 4, 2, 8, Kernel::kScalar, 17);
  opt.max_rounds = 3;
  opt.early_exit = false;
  opt.spmd.supervise = true;
  opt.spmd.faults.kill_at_event(3, 6);  // lose one rank mid-round
  const auto scalar = midas_kpath(g, part, opt, f);
  opt.kernel = Kernel::kBitsliced;
  const auto sliced = midas_kpath(g, part, opt, f);
  // When peers observe the injected death is scheduling-dependent, so
  // clocks and message counts legitimately vary between runs; only the
  // detection answer is deterministic under faults (the fault-runtime
  // contract, see src/runtime/fault.hpp).
  EXPECT_EQ(sliced.failed_ranks, scalar.failed_ranks);
  EXPECT_EQ(sliced.found, scalar.found);
  EXPECT_EQ(sliced.found_round, scalar.found_round);

  // And the degraded answer still matches the clean sequential one.
  DetectOptions so = seq_opts(4, Kernel::kScalar, 17);
  so.max_rounds = 3;
  const auto seq = detect_kpath_seq(g, so, f);
  EXPECT_EQ(scalar.found, seq.found);
  EXPECT_EQ(scalar.found_round, seq.found_round);
}

}  // namespace
}  // namespace midas::core
