// Field concepts shared by the finite-field implementations.
//
// MIDAS evaluates polynomials over GF(2^l) with l = 3 + ceil(log2 k)
// (Williams' refinement) or over the integer ring Z / 2^{k+1} Z (Koutis'
// original). Both expose the same instance interface so the detection
// kernels are written once and instantiated per algebra. Field objects are
// cheap to copy (a pointer to shared tables at most) and all operations are
// const, so one instance can be shared across ranks/threads.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>

namespace midas::gf {

/// An algebra usable by the multilinear detection kernels: value_type is an
/// unsigned integer type; zero/one are the additive and multiplicative
/// identities; add and mul the ring operations. Addition must make every
/// element 2-torsion-friendly in the sense the detection math requires
/// (char 2 for the GF types; mod 2^{k+1} for the Koutis ring).
template <typename F>
concept DetectionAlgebra =
    std::copyable<F> &&
    requires(const F f, typename F::value_type a, typename F::value_type b) {
      typename F::value_type;
      requires std::unsigned_integral<typename F::value_type>;
      { f.zero() } -> std::same_as<typename F::value_type>;
      { f.one() } -> std::same_as<typename F::value_type>;
      { f.add(a, b) } -> std::same_as<typename F::value_type>;
      { f.mul(a, b) } -> std::same_as<typename F::value_type>;
    };

/// A DetectionAlgebra that is also a field (has inverses) — true for the
/// GF(2^l) types, false for Z / 2^{k+1} Z.
template <typename F>
concept GaloisField =
    DetectionAlgebra<F> && requires(const F f, typename F::value_type a) {
      { f.inv(a) } -> std::same_as<typename F::value_type>;
    };

/// dst[q] += s * src[q] for a loop-invariant scalar s. Dispatches to the
/// field's dedicated row primitive when it has one (GFSmall::scale_add,
/// GF256::axpy — one log lookup for the whole row) and falls back to a
/// mul/add loop otherwise. dst and src must not overlap.
template <DetectionAlgebra F>
void scale_add_row(const F& f, typename F::value_type* dst,
                   typename F::value_type s,
                   const typename F::value_type* src, std::size_t n) {
  if constexpr (requires { f.scale_add(dst, s, src, n); }) {
    f.scale_add(dst, s, src, n);
  } else if constexpr (requires { f.axpy(dst, s, src, n); }) {
    f.axpy(dst, s, src, n);
  } else {
    if (s == f.zero()) return;
    for (std::size_t q = 0; q < n; ++q)
      dst[q] = f.add(dst[q], f.mul(s, src[q]));
  }
}

/// dst[q] += sum_{i <= z} a_i[q] * b_{z-i}[q] over rows x_i = x + i n (z = 0:
/// one pointwise product), via the field's convolution primitive
/// (GF256::mul_add_conv) or pointwise primitive when present.
template <DetectionAlgebra F>
void mul_add_rows(const F& f, typename F::value_type* dst,
                  const typename F::value_type* a,
                  const typename F::value_type* b, std::size_t z,
                  std::size_t n) {
  if constexpr (requires { f.mul_add_conv(dst, a, b, z, n); }) {
    f.mul_add_conv(dst, a, b, z, n);
  } else {
    for (std::size_t i = 0; i <= z; ++i) {
      const auto* x = a + i * n;
      const auto* y = b + (z - i) * n;
      if constexpr (requires { f.mul_add_pointwise(dst, x, y, n); }) {
        f.mul_add_pointwise(dst, x, y, n);
      } else {
        for (std::size_t q = 0; q < n; ++q)
          dst[q] = f.add(dst[q], f.mul(x[q], y[q]));
      }
    }
  }
}

/// Exponentiation by squaring, valid for any DetectionAlgebra.
template <DetectionAlgebra F>
[[nodiscard]] constexpr typename F::value_type pow(const F& f,
                                                   typename F::value_type a,
                                                   std::uint64_t e) {
  typename F::value_type acc = f.one();
  typename F::value_type base = a;
  while (e != 0) {
    if (e & 1u) acc = f.mul(acc, base);
    base = f.mul(base, base);
    e >>= 1;
  }
  return acc;
}

}  // namespace midas::gf
