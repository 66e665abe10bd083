#include "gf/gf256.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define MIDAS_GF256_X86 1
#endif

namespace midas::gf::detail256 {

#ifdef MIDAS_GF256_X86

// vgf2p8mulb needs GFNI; its 256-bit form AVX, and the byte-masked tail
// AVX-512BW + VL. Compiled for those targets only, called only after
// detect_gfni_rows() saw all of them.
#define MIDAS_GFNI_TARGET \
  __attribute__((target("gfni,avx2,avx512f,avx512bw,avx512vl")))

namespace {

/// Low `n` (< 32) byte lanes.
MIDAS_GFNI_TARGET inline __mmask32 tail_mask(std::size_t n) {
  return static_cast<__mmask32>((std::uint32_t{1} << n) - 1);
}

MIDAS_GFNI_TARGET inline __m256i load(const std::uint8_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

MIDAS_GFNI_TARGET inline void store(std::uint8_t* p, __m256i x) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), x);
}

}  // namespace

MIDAS_GFNI_TARGET void mul_add_conv_gfni(std::uint8_t* dst,
                                         const std::uint8_t* a,
                                         const std::uint8_t* b, std::size_t z,
                                         std::size_t n) noexcept {
  std::size_t q = 0;
  for (; q + 32 <= n; q += 32) {
    __m256i acc = load(dst + q);
    for (std::size_t i = 0; i <= z; ++i)
      acc = _mm256_xor_si256(
          acc, _mm256_gf2p8mul_epi8(load(a + i * n + q),
                                    load(b + (z - i) * n + q)));
    store(dst + q, acc);
  }
  if (q == n) return;
  const __mmask32 m = tail_mask(n - q);
  __m256i acc = _mm256_maskz_loadu_epi8(m, dst + q);
  for (std::size_t i = 0; i <= z; ++i)
    acc = _mm256_xor_si256(
        acc, _mm256_gf2p8mul_epi8(
                 _mm256_maskz_loadu_epi8(m, a + i * n + q),
                 _mm256_maskz_loadu_epi8(m, b + (z - i) * n + q)));
  _mm256_mask_storeu_epi8(dst + q, m, acc);
}

MIDAS_GFNI_TARGET void axpy_gfni(std::uint8_t* dst, std::uint8_t s,
                                 const std::uint8_t* b,
                                 std::size_t n) noexcept {
  if (s == 0) return;
  const __m256i sv = _mm256_set1_epi8(static_cast<char>(s));
  std::size_t q = 0;
  for (; q + 32 <= n; q += 32)
    store(dst + q, _mm256_xor_si256(load(dst + q),
                                    _mm256_gf2p8mul_epi8(sv, load(b + q))));
  if (q == n) return;
  const __mmask32 m = tail_mask(n - q);
  const __m256i prod =
      _mm256_gf2p8mul_epi8(sv, _mm256_maskz_loadu_epi8(m, b + q));
  _mm256_mask_storeu_epi8(
      dst + q, m, _mm256_xor_si256(_mm256_maskz_loadu_epi8(m, dst + q), prod));
}

bool detect_gfni_rows() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("gfni") && __builtin_cpu_supports("avx2") &&
         __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vl");
}

#else  // not x86: the table rows are the only implementation.

void mul_add_conv_gfni(std::uint8_t* dst, const std::uint8_t* a,
                       const std::uint8_t* b, std::size_t z,
                       std::size_t n) noexcept {
  mul_add_conv_table(dst, a, b, z, n);
}

void axpy_gfni(std::uint8_t* dst, std::uint8_t s, const std::uint8_t* b,
               std::size_t n) noexcept {
  axpy_table(dst, s, b, n);
}

bool detect_gfni_rows() noexcept { return false; }

#endif

}  // namespace midas::gf::detail256
