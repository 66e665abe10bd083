// Which inner-loop kernel a detector runs: the one place kAuto resolves.
//
// Two kernels evaluate every recurrence bit-exactly (docs/ALGORITHM.md
// section 6). Scalar rows hold one field value per iteration lane: a single
// lane in the sequential detectors, N2 contiguous bytes in the distributed
// engines (the paper's Section IV-B layout), where GF(2^8) rows multiply 32
// lanes per instruction on a GFNI host. Bit-sliced blocks hold 64 lanes as
// l bit-planes (gf/bitsliced.hpp), so a phase of fewer than 64 iterations
// leaves lanes dead. Which one is faster depends on the field, the host,
// the recurrence and the lane count, all of which the code can observe;
// resolve_kernel maps them to a kernel without timing anything. The
// distributed driver reports the kernel it resolved in its result, so
// callers that need it (the service's cross-kernel audit, the CLI, the
// kernel bench) read it there instead of re-deriving the engine's shape.
#pragma once

#include <cstdint>

#include "core/errors.hpp"
#include "gf/bitsliced.hpp"

namespace midas::core {

/// Which inner-loop implementation a detector runs. kAuto lets
/// resolve_kernel pick; kBitsliced on a field the bit-sliced engine cannot
/// mirror (anything but GF(2^l), l <= 16, with modulus()) is an error.
enum class Kernel { kAuto, kScalar, kBitsliced };

/// The observable properties kAuto decides on.
struct KernelShape {
  bool bitsliceable = false;     // the field has a bit-sliced mirror
  bool byte_rows = false;        // GF(2^8): one byte per lane (else 16 bits)
  bool gfni = false;             // the field multiplies byte rows on GFNI
  bool fast_transposes = false;  // bit-sliced halo transposes run on
                                 // AVX-512BW masks (else 8x8 delta swaps)
  bool sequential = true;        // a sequential detector: one lane per row
  bool convolution = false;      // the recurrence convolves row products
                                 // per edge and cell (scan, W * H > 1)
  std::uint64_t lanes = 1;       // a distributed engine's lanes per
                                 // phase, min(N2, 2^k)
};

/// The kernel `requested` runs as for `shape`; never kAuto. The rule for
/// kAuto is read off bench_bitsliced_kernels (BENCH_kernels.json): the
/// sequential rows, and the distributed rows at engine-large query shapes
/// with N2 = 16 and 64, keeping only picks that win beyond timing noise:
///  - sequential detectors: one-lane scalar rows lose to 64 lanes per
///    block by ~10x: bit-sliced;
///  - GF(2^8) rows on GFNI beat bit-sliced blocks on every recurrence at
///    every lane count: scalar;
///  - table rows (GF(2^8) without GFNI, GFSmall) lose to bit-sliced
///    blocks on convolutions, with either transpose: bit-sliced;
///  - at 64 lanes (no dead lanes in a block) 16-bit table rows lose on
///    the other recurrences too, but only against AVX-512 transposes
///    (k-path 1.3-1.4x behind them, 1.4x ahead of delta swaps):
///    bit-sliced there. Byte table rows at 64 lanes have no consistent
///    winner (k-path favours bit-sliced by 1.1-1.4x, motif and k-tree
///    favour table rows by up to 1.45x), so they stay on the default;
///  - everywhere else table rows tie or win: scalar.
[[nodiscard]] inline Kernel resolve_kernel(Kernel requested,
                                           const KernelShape& shape) {
  if (requested == Kernel::kBitsliced) {
    detail::require_options(shape.bitsliceable,
                            "kernel=bitsliced requires a GF(2^l) field with "
                            "l <= 16 that exposes modulus() (GF256 or "
                            "GFSmall)");
    return Kernel::kBitsliced;
  }
  if (requested == Kernel::kScalar || !shape.bitsliceable)
    return Kernel::kScalar;
  if (shape.sequential) return Kernel::kBitsliced;
  if (shape.gfni) return Kernel::kScalar;
  if (shape.convolution) return Kernel::kBitsliced;
  if (shape.lanes >= 64 && !shape.byte_rows && shape.fast_transposes)
    return Kernel::kBitsliced;
  return Kernel::kScalar;
}

/// The shape of a sequential detector over field `f` on this host.
template <typename F>
[[nodiscard]] KernelShape kernel_shape(const F& f) {
  KernelShape s;
  if constexpr (gf::Bitsliceable<F>) s.bitsliceable = f.bits() <= 16;
  s.byte_rows = sizeof(typename F::value_type) == 1;
  if constexpr (requires { f.rows_on_gfni(); }) s.gfni = f.rows_on_gfni();
  s.fast_transposes = gf::detail_bs::avx512_transposes();
  return s;
}

/// The shape of a distributed engine's phase over field `f` on this host.
template <typename F>
[[nodiscard]] KernelShape kernel_shape(const F& f, bool convolution,
                                       std::uint64_t lanes) {
  KernelShape s = kernel_shape(f);
  s.sequential = false;
  s.convolution = convolution;
  s.lanes = lanes;
  return s;
}

/// Name of a resolved kernel.
[[nodiscard]] inline const char* kernel_name(Kernel resolved) {
  return resolved == Kernel::kBitsliced ? "bitsliced" : "scalar";
}

/// Name of the kernel a sequential detector over `f` runs for `requested`
/// — what the CLI and bench headers print to make outputs self-describing.
template <typename F>
[[nodiscard]] const char* kernel_name(const F& f, Kernel requested) {
  return kernel_name(resolve_kernel(requested, kernel_shape(f)));
}

}  // namespace midas::core
