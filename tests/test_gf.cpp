// Field axioms and arithmetic identities for every detection algebra.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gf/field.hpp"
#include "gf/gf256.hpp"
#include "gf/gf64.hpp"
#include "gf/gfsmall.hpp"
#include "gf/zmod.hpp"
#include "util/rng.hpp"

namespace midas::gf {
namespace {

static_assert(GaloisField<GF256>);
static_assert(GaloisField<GFSmall>);
static_assert(GaloisField<GF64>);
static_assert(DetectionAlgebra<ZMod2e>);

template <typename F>
void check_field_axioms(const F& f, int samples, std::uint64_t seed) {
  using V = typename F::value_type;
  Xoshiro256 rng(seed);
  const int bits = f.bits();
  const std::uint64_t mask =
      bits >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << bits) - 1);
  auto draw = [&] { return static_cast<V>(rng() & mask); };

  for (int s = 0; s < samples; ++s) {
    const V a = draw(), b = draw(), c = draw();
    // Commutativity.
    EXPECT_EQ(f.add(a, b), f.add(b, a));
    EXPECT_EQ(f.mul(a, b), f.mul(b, a));
    // Associativity.
    EXPECT_EQ(f.add(f.add(a, b), c), f.add(a, f.add(b, c)));
    EXPECT_EQ(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
    // Distributivity.
    EXPECT_EQ(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
    // Identities.
    EXPECT_EQ(f.add(a, f.zero()), a);
    EXPECT_EQ(f.mul(a, f.one()), a);
    EXPECT_EQ(f.mul(a, f.zero()), f.zero());
    // Characteristic 2: x + x = 0.
    EXPECT_EQ(f.add(a, a), f.zero());
    // Inverses.
    if (a != f.zero()) {
      EXPECT_EQ(f.mul(a, f.inv(a)), f.one());
    }
  }
}

TEST(GF256, FieldAxioms) { check_field_axioms(GF256{}, 2000, 1); }
TEST(GF64, FieldAxioms) { check_field_axioms(GF64{}, 500, 2); }

TEST(GF256, ExhaustiveInverses) {
  GF256 f;
  for (int a = 1; a < 256; ++a) {
    const auto v = static_cast<std::uint8_t>(a);
    EXPECT_EQ(f.mul(v, f.inv(v)), 1) << "a=" << a;
  }
}

TEST(GF256, MulMatchesSchoolbook) {
  // Independent shift-and-reduce check against the table-driven mul.
  GF256 f;
  auto slow = [](std::uint8_t a, std::uint8_t b) {
    std::uint32_t acc = 0;
    for (int i = 0; i < 8; ++i)
      if (b & (1 << i)) acc ^= static_cast<std::uint32_t>(a) << i;
    for (int bit = 15; bit >= 8; --bit)
      if (acc & (1u << bit)) acc ^= 0x11Bu << (bit - 8);
    return static_cast<std::uint8_t>(acc);
  };
  Xoshiro256 rng(3);
  for (int s = 0; s < 5000; ++s) {
    const auto a = static_cast<std::uint8_t>(rng() & 0xFF);
    const auto b = static_cast<std::uint8_t>(rng() & 0xFF);
    EXPECT_EQ(f.mul(a, b), slow(a, b));
  }
}

TEST(GF256, PointwiseOpsMatchScalar) {
  GF256 f;
  Xoshiro256 rng(4);
  std::vector<std::uint8_t> a(257), b(257), dst(257, 0), expect(257, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<std::uint8_t>(rng() & 0xFF);
    b[i] = static_cast<std::uint8_t>(rng() & 0xFF);
  }
  for (std::size_t i = 0; i < a.size(); ++i)
    expect[i] = f.add(expect[i], f.mul(a[i], b[i]));
  f.mul_add_pointwise(dst.data(), a.data(), b.data(), dst.size());
  EXPECT_EQ(dst, expect);

  std::vector<std::uint8_t> dst2(257, 0), expect2(257, 0);
  const std::uint8_t s = 0x53;
  for (std::size_t i = 0; i < b.size(); ++i) expect2[i] = f.mul(s, b[i]);
  f.axpy(dst2.data(), s, b.data(), dst2.size());
  EXPECT_EQ(dst2, expect2);
}

// The GFNI rows are checked against the table rows, each called by name;
// GF256's own members pick one of them per host.

TEST(GF256Rows, GfniProductsEqualTableProductsExhaustively) {
  if (!gfni_rows()) GTEST_SKIP() << "host has no GFNI with AVX-512BW/VL";
  GF256 f;
  // Row a holds every byte; row b one byte repeated: 256 x 256 products.
  std::vector<std::uint8_t> a(256), b(256), dst(256);
  for (int x = 0; x < 256; ++x) a[static_cast<std::size_t>(x)] =
      static_cast<std::uint8_t>(x);
  for (int y = 0; y < 256; ++y) {
    std::fill(b.begin(), b.end(), static_cast<std::uint8_t>(y));
    std::fill(dst.begin(), dst.end(), std::uint8_t{0});
    detail256::mul_add_gfni(dst.data(), a.data(), b.data(), dst.size());
    for (int x = 0; x < 256; ++x)
      ASSERT_EQ(dst[static_cast<std::size_t>(x)],
                f.mul(static_cast<std::uint8_t>(x),
                      static_cast<std::uint8_t>(y)))
          << x << " * " << y;
    std::fill(dst.begin(), dst.end(), std::uint8_t{0});
    detail256::axpy_gfni(dst.data(), static_cast<std::uint8_t>(y), a.data(),
                         dst.size());
    for (int x = 0; x < 256; ++x)
      ASSERT_EQ(dst[static_cast<std::size_t>(x)],
                f.mul(static_cast<std::uint8_t>(y),
                      static_cast<std::uint8_t>(x)))
          << y << " * " << x;
  }
}

/// Random bytes, with a run of zeros so the table rows' zero skips run.
std::vector<std::uint8_t> random_bytes(std::size_t n, Xoshiro256& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& x : v) x = static_cast<std::uint8_t>(rng() & 0xFF);
  for (std::size_t i = n / 3; i < n / 3 + 4 && i < n; ++i) v[i] = 0;
  return v;
}

TEST(GF256Rows, GfniRowsEqualTableRowsAtEveryLengthAndOffset) {
  if (!gfni_rows()) GTEST_SKIP() << "host has no GFNI with AVX-512BW/VL";
  Xoshiro256 rng(16);
  constexpr std::size_t kMax = 130, kPad = 3;
  for (std::size_t n = 0; n <= kMax; ++n)
    for (std::size_t off = 0; off < kPad; ++off) {
      // Rows start `off` bytes into their buffers (unaligned), and the
      // bytes around each row must stay untouched.
      const auto a = random_bytes(n + 2 * kPad, rng);
      const auto b = random_bytes(3 * (n + 2 * kPad), rng);
      const auto dst0 = random_bytes(n + 2 * kPad, rng);
      const std::uint8_t s = static_cast<std::uint8_t>(rng() & 0xFF);
      auto table = dst0, gfni = dst0;
      detail256::mul_add_table(table.data() + off, a.data() + off,
                               b.data() + off, n);
      detail256::mul_add_gfni(gfni.data() + off, a.data() + off,
                              b.data() + off, n);
      ASSERT_EQ(gfni, table) << "mul_add n=" << n << " off=" << off;
      table = gfni = dst0;
      detail256::axpy_table(table.data() + off, s, b.data() + off, n);
      detail256::axpy_gfni(gfni.data() + off, s, b.data() + off, n);
      ASSERT_EQ(gfni, table) << "axpy n=" << n << " off=" << off;
      // The convolution of three row pairs (rows of b are n apart).
      table = gfni = dst0;
      std::vector<std::uint8_t> a3(3 * n + kPad);
      for (auto& x : a3) x = static_cast<std::uint8_t>(rng() & 0xFF);
      detail256::mul_add_conv_table(table.data() + off, a3.data() + off,
                                    b.data() + off, 2, n);
      detail256::mul_add_conv_gfni(gfni.data() + off, a3.data() + off,
                                   b.data() + off, 2, n);
      ASSERT_EQ(gfni, table) << "conv n=" << n << " off=" << off;
    }
}

TEST(GF256Rows, TableConvolutionIsASumOfProducts) {
  GF256 f;
  Xoshiro256 rng(17);
  const std::size_t n = 19, z = 3;
  const auto a = random_bytes((z + 1) * n, rng);
  const auto b = random_bytes((z + 1) * n, rng);
  std::vector<std::uint8_t> dst(n, 0), expect(n, 0);
  for (std::size_t i = 0; i <= z; ++i)
    for (std::size_t q = 0; q < n; ++q)
      expect[q] ^= f.mul(a[i * n + q], b[(z - i) * n + q]);
  detail256::mul_add_conv_table(dst.data(), a.data(), b.data(), z, n);
  EXPECT_EQ(dst, expect);
}

class GFSmallParam : public ::testing::TestWithParam<int> {};

TEST_P(GFSmallParam, FieldAxioms) {
  check_field_axioms(GFSmall(GetParam()), 800, 10 + GetParam());
}

TEST_P(GFSmallParam, OrderAndGenerator) {
  GFSmall f(GetParam());
  EXPECT_EQ(f.order(), 1u << GetParam());
  // Every nonzero element has an inverse; exhaustive for small fields.
  if (GetParam() <= 10) {
    for (std::uint32_t a = 1; a < f.order(); ++a) {
      const auto v = static_cast<std::uint16_t>(a);
      EXPECT_EQ(f.mul(v, f.inv(v)), 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, GFSmallParam,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 9, 10, 12,
                                           14, 16));

TEST(GFSmall, MatchesGF256AtWidth8) {
  // Both use the AES polynomial; mul tables must agree.
  GFSmall small(8);
  GF256 big;
  Xoshiro256 rng(5);
  for (int s = 0; s < 2000; ++s) {
    const auto a = static_cast<std::uint8_t>(rng() & 0xFF);
    const auto b = static_cast<std::uint8_t>(rng() & 0xFF);
    EXPECT_EQ(small.mul(a, b), big.mul(a, b));
  }
}

class ZModParam : public ::testing::TestWithParam<int> {};

TEST_P(ZModParam, RingAxioms) {
  const int e = GetParam();
  ZMod2e ring(e);
  Xoshiro256 rng(20 + e);
  for (int s = 0; s < 500; ++s) {
    const auto a = static_cast<std::uint32_t>(rng()) & ring.mask();
    const auto b = static_cast<std::uint32_t>(rng()) & ring.mask();
    const auto c = static_cast<std::uint32_t>(rng()) & ring.mask();
    EXPECT_EQ(ring.add(a, b), ring.add(b, a));
    EXPECT_EQ(ring.mul(a, b), ring.mul(b, a));
    EXPECT_EQ(ring.mul(ring.mul(a, b), c), ring.mul(a, ring.mul(b, c)));
    EXPECT_EQ(ring.mul(a, ring.add(b, c)),
              ring.add(ring.mul(a, b), ring.mul(a, c)));
    // Reference computation with plain 64-bit arithmetic.
    const std::uint64_t mod = std::uint64_t{1} << e;
    EXPECT_EQ(ring.add(a, b), (std::uint64_t{a} + b) % mod);
    EXPECT_EQ(ring.mul(a, b), (std::uint64_t{a} * b) % mod);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ZModParam,
                         ::testing::Values(1, 2, 5, 9, 13, 19, 25, 31));

TEST(ZMod2e, KoutisSquareIdentity) {
  // (v0 + v)^2 = 0 in the matrix representation: diagonal entries are
  // 0 or 2, and over 2^k iterations a squared variable's contribution is a
  // multiple of 2^{k+1} (checked in the detection tests); here check the
  // scalar identity 2 * 2 = 4 = 0 mod 4 for k = 1.
  ZMod2e ring(2);
  EXPECT_EQ(ring.mul(2, 2), 0u);
}

TEST(Pow, ExponentiationBySquaring) {
  GF256 f;
  // a^255 = 1 for all nonzero a (Fermat in GF(2^8)).
  for (int a = 1; a < 256; ++a)
    EXPECT_EQ(pow(f, static_cast<std::uint8_t>(a), 255), 1);
  EXPECT_EQ(pow(f, std::uint8_t{7}, 0), 1);
  ZMod2e ring(8);
  EXPECT_EQ(pow(ring, std::uint32_t{3}, 5), 243u % 256u);
}

}  // namespace
}  // namespace midas::gf
