// GF(2^8) with compile-time log/antilog tables.
//
// This is MIDAS's default field: Williams' refinement uses GF(2^l) with
// l = 3 + ceil(log2 k), so every subgraph size up to k = 32 fits in one
// byte. One-byte values are exactly the cache-friendly layout the paper's
// Section IV-B exploits: a vertex's N2-iteration batch is a contiguous run
// of N2 bytes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "gf/polynomials.hpp"

namespace midas::gf {

namespace detail256 {

/// Multiply in GF(2^8) by shift-and-reduce (used only to build the tables).
constexpr std::uint8_t slow_mul(std::uint8_t a, std::uint8_t b) {
  std::uint32_t acc = 0;
  std::uint32_t aa = a;
  for (int i = 0; i < 8; ++i) {
    if (b & (1u << i)) acc ^= aa << i;
  }
  // Reduce modulo x^8 + x^4 + x^3 + x + 1.
  for (int bit = 15; bit >= 8; --bit) {
    if (acc & (1u << bit)) acc ^= irreducible_poly(8) << (bit - 8);
  }
  return static_cast<std::uint8_t>(acc);
}

struct Tables {
  // exp_ has 510 entries so mul can index log[a]+log[b] without a mod.
  std::array<std::uint8_t, 510> exp{};
  std::array<std::uint8_t, 256> log{};
};

constexpr Tables build_tables() {
  Tables t{};
  std::uint8_t x = 1;
  for (int i = 0; i < 255; ++i) {
    t.exp[static_cast<std::size_t>(i)] = x;
    t.exp[static_cast<std::size_t>(i) + 255] = x;
    t.log[x] = static_cast<std::uint8_t>(i);
    x = slow_mul(x, 0x03);  // 0x03 generates GF(2^8)* for the AES polynomial
  }
  return t;
}

inline constexpr Tables kTables = build_tables();

/// dst[q] ^= a[q] * b[q] by log/antilog lookups: the portable row product
/// and the oracle the GFNI rows are tested against.
inline void mul_add_table(std::uint8_t* dst, const std::uint8_t* a,
                          const std::uint8_t* b, std::size_t n) noexcept {
  const auto& t = kTables;
  for (std::size_t q = 0; q < n; ++q) {
    if (a[q] != 0 && b[q] != 0)
      dst[q] ^= t.exp[static_cast<std::size_t>(t.log[a[q]]) + t.log[b[q]]];
  }
}

/// mul_add_table over the convolution of z + 1 row pairs:
/// dst[q] ^= sum_{i <= z} a[i n + q] * b[(z - i) n + q].
inline void mul_add_conv_table(std::uint8_t* dst, const std::uint8_t* a,
                               const std::uint8_t* b, std::size_t z,
                               std::size_t n) noexcept {
  for (std::size_t i = 0; i <= z; ++i)
    mul_add_table(dst, a + i * n, b + (z - i) * n, n);
}

/// dst[q] ^= s * b[q] by lookups, with log(s) read once for the row.
inline void axpy_table(std::uint8_t* dst, std::uint8_t s,
                       const std::uint8_t* b, std::size_t n) noexcept {
  if (s == 0) return;
  const auto& t = kTables;
  const std::size_t ls = t.log[s];
  for (std::size_t q = 0; q < n; ++q) {
    if (b[q] != 0) dst[q] ^= t.exp[ls + t.log[b[q]]];
  }
}

/// dst[q] ^= sum_{i <= z} a[i n + q] * b[(z - i) n + q], the convolution
/// of z + 1 row pairs, on vgf2p8mulb (which multiplies bytes modulo the AES
/// polynomial these tables use), 32 lanes at a time with dst loaded and
/// stored once per 32 lanes; a row tail of any length (N2 = 8 for every
/// k = 3 query) is one masked load per row and one masked store. Call only
/// where gfni_rows() holds.
void mul_add_conv_gfni(std::uint8_t* dst, const std::uint8_t* a,
                       const std::uint8_t* b, std::size_t z,
                       std::size_t n) noexcept;

/// mul_add_table and axpy_table on GFNI (the product is the convolution at
/// z = 0). Call only where gfni_rows() holds.
inline void mul_add_gfni(std::uint8_t* dst, const std::uint8_t* a,
                         const std::uint8_t* b, std::size_t n) noexcept {
  mul_add_conv_gfni(dst, a, b, 0, n);
}
void axpy_gfni(std::uint8_t* dst, std::uint8_t s, const std::uint8_t* b,
               std::size_t n) noexcept;

/// Whether the host has GFNI plus the AVX-512BW/VL byte masks the GFNI
/// rows use. Asked of the CPU once; the builds stay portable, so this is a
/// run-time choice.
bool detect_gfni_rows() noexcept;

}  // namespace detail256

/// detail256::detect_gfni_rows(), cached on first use.
[[nodiscard]] inline bool gfni_rows() noexcept {
  static const bool yes = detail256::detect_gfni_rows();
  return yes;
}

/// GF(2^8), stateless. Scalar operations are table lookups; the row
/// primitives run on GFNI where the host has it (gfni_rows()).
class GF256 {
 public:
  using value_type = std::uint8_t;

  [[nodiscard]] constexpr value_type zero() const noexcept { return 0; }
  [[nodiscard]] constexpr value_type one() const noexcept { return 1; }
  [[nodiscard]] constexpr int bits() const noexcept { return 8; }
  /// The AES modulus the tables were built over (leading bit included);
  /// lets BitslicedGF mirror this field exactly.
  [[nodiscard]] constexpr std::uint32_t modulus() const noexcept {
    return irreducible_poly(8);
  }

  [[nodiscard]] constexpr value_type add(value_type a,
                                         value_type b) const noexcept {
    return a ^ b;
  }

  [[nodiscard]] constexpr value_type mul(value_type a,
                                         value_type b) const noexcept {
    if (a == 0 || b == 0) return 0;
    const auto& t = detail256::kTables;
    return t.exp[static_cast<std::size_t>(t.log[a]) + t.log[b]];
  }

  /// Multiplicative inverse; precondition a != 0.
  [[nodiscard]] constexpr value_type inv(value_type a) const noexcept {
    const auto& t = detail256::kTables;
    return t.exp[255 - t.log[a]];
  }

  /// Whether the row primitives below run on GFNI (gfni_rows()); kAuto
  /// reads it through core::kernel_shape.
  [[nodiscard]] bool rows_on_gfni() const noexcept { return gfni_rows(); }

  /// dst[q] += a[q] * b[q] for q in [0, n) — the hot loop of the batched
  /// (N2-wide) polynomial evaluation.
  void mul_add_pointwise(value_type* dst, const value_type* a,
                         const value_type* b, std::size_t n) const noexcept {
    if (gfni_rows())
      detail256::mul_add_gfni(dst, a, b, n);
    else
      detail256::mul_add_table(dst, a, b, n);
  }

  /// dst[q] += sum_{i <= z} a_i[q] * b_{z-i}[q] over rows x_i = x + i n:
  /// the layered DP's convolution of row pairs in one pass over dst.
  void mul_add_conv(value_type* dst, const value_type* a, const value_type* b,
                    std::size_t z, std::size_t n) const noexcept {
    if (gfni_rows())
      detail256::mul_add_conv_gfni(dst, a, b, z, n);
    else
      detail256::mul_add_conv_table(dst, a, b, z, n);
  }

  /// dst[q] += s * b[q] for a scalar s — used when a vertex's base value is
  /// constant across the batch.
  void axpy(value_type* dst, value_type s, const value_type* b,
            std::size_t n) const noexcept {
    if (gfni_rows())
      detail256::axpy_gfni(dst, s, b, n);
    else
      detail256::axpy_table(dst, s, b, n);
  }
};

}  // namespace midas::gf
