#include "gf/bitsliced.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define MIDAS_BITSLICED_X86 1
#endif

namespace midas::gf {

BitslicedGF::BitslicedGF(int l, std::uint32_t modulus) : l_(l), poly_(modulus) {
  if (l < 2 || l > 16)
    throw std::invalid_argument("BitslicedGF: l must be in [2, 16], got " +
                                std::to_string(l));
  if (modulus == 0 || static_cast<int>(std::bit_width(modulus)) != l + 1)
    throw std::invalid_argument(
        "BitslicedGF: modulus must have degree exactly l");
  low_ = poly_ ^ (1u << l_);
}

namespace detail_bs {

namespace {

using word = std::uint64_t;

/// Transpose the 8x8 bit matrix whose row i is byte i: bit j of byte i
/// moves to bit i of byte j (three delta swaps). Self-inverse.
constexpr word transpose8(word x) noexcept {
  word t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAULL;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCULL;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ULL;
  x ^= t ^ (t << 28);
  return x;
}
static_assert(transpose8(0x02) == 0x0100 && transpose8(0x0100) == 0x02 &&
              transpose8(0x8000000000000000ULL) == 0x8000000000000000ULL);

/// 8 bytes as a word, byte i at bits [8i, 8i + 8) on any byte order.
word load_le(const void* p) noexcept {
  word x;
  std::memcpy(&x, p, sizeof(x));
  if constexpr (std::endian::native == std::endian::big)
    x = __builtin_bswap64(x);
  return x;
}

void store_le(void* p, word x) noexcept {
  if constexpr (std::endian::native == std::endian::big)
    x = __builtin_bswap64(x);
  std::memcpy(p, &x, sizeof(x));
}

/// The even bytes of a word, packed into its low half (and the inverse):
/// the low bytes of four little-endian 16-bit lanes.
constexpr word even_bytes(word x) noexcept {
  x &= 0x00FF00FF00FF00FFULL;
  x = (x | (x >> 8)) & 0x0000FFFF0000FFFFULL;
  return (x | (x >> 16)) & 0x00000000FFFFFFFFULL;
}
constexpr word spread_bytes(word x) noexcept {
  x &= 0x00000000FFFFFFFFULL;
  x = (x | (x << 16)) & 0x0000FFFF0000FFFFULL;
  return (x | (x << 8)) & 0x00FF00FF00FF00FFULL;
}

/// Lanes [b, b + 8) of `vals` as two words of bytes (low bytes, high
/// bytes), lanes past `lanes` zero.
template <typename Vt>
void gather8(const Vt* vals, int b, int lanes, word& lo, word& hi) noexcept {
  Vt buf[8] = {};
  const Vt* src = vals + b;
  if (lanes - b < 8) {
    std::memcpy(buf, src, static_cast<std::size_t>(lanes - b) * sizeof(Vt));
    src = buf;
  }
  if constexpr (sizeof(Vt) == 1) {
    lo = load_le(src);
    hi = 0;
  } else {
    const word w0 = load_le(src), w1 = load_le(src + 4);
    lo = even_bytes(w0) | (even_bytes(w1) << 32);
    hi = even_bytes(w0 >> 8) | (even_bytes(w1 >> 8) << 32);
  }
}

template <typename Vt>
void scatter8(Vt* vals, int b, int lanes, word lo, word hi) noexcept {
  Vt buf[8];
  Vt* dst = lanes - b < 8 ? buf : vals + b;
  if constexpr (sizeof(Vt) == 1) {
    store_le(dst, lo);
  } else {
    store_le(dst, spread_bytes(lo) | (spread_bytes(hi) << 8));
    store_le(dst + 4, spread_bytes(lo >> 32) | (spread_bytes(hi >> 32) << 8));
  }
  if (dst == buf)
    std::memcpy(vals + b, buf, static_cast<std::size_t>(lanes - b) * sizeof(Vt));
}

/// Eight lanes at a time: transposing the word of their low bytes gives
/// byte p = the eight lanes' bits of plane p (planes 8.. from the high
/// bytes).
template <typename Vt>
void pack_swap_impl(word* block, const Vt* vals, int lanes, int l) noexcept {
  std::fill(block, block + l, word{0});
  const int lo_planes = std::min(l, 8);
  const int hi_planes = sizeof(Vt) == 2 ? l - lo_planes : 0;
  for (int b = 0; b < lanes; b += 8) {
    word lo, hi;
    gather8(vals, b, lanes, lo, hi);
    lo = transpose8(lo);
    for (int p = 0; p < lo_planes; ++p)
      block[p] |= ((lo >> (8 * p)) & 0xFF) << b;
    if (hi_planes <= 0) continue;
    hi = transpose8(hi);
    for (int p = 0; p < hi_planes; ++p)
      block[8 + p] |= ((hi >> (8 * p)) & 0xFF) << b;
  }
}

template <typename Vt>
void unpack_swap_impl(Vt* vals, const word* block, int lanes,
                      int l) noexcept {
  const int lo_planes = std::min(l, 8);
  const int hi_planes = sizeof(Vt) == 2 ? l - lo_planes : 0;
  for (int b = 0; b < lanes; b += 8) {
    word lo = 0, hi = 0;
    for (int p = 0; p < lo_planes; ++p)
      lo |= ((block[p] >> b) & 0xFF) << (8 * p);
    for (int p = 0; p < hi_planes; ++p)
      hi |= ((block[8 + p] >> b) & 0xFF) << (8 * p);
    scatter8(vals, b, lanes, transpose8(lo), transpose8(hi));
  }
}

}  // namespace

void pack_swap(word* block, const std::uint8_t* vals, int lanes,
               int l) noexcept {
  pack_swap_impl(block, vals, lanes, l);
}
void pack_swap(word* block, const std::uint16_t* vals, int lanes,
               int l) noexcept {
  pack_swap_impl(block, vals, lanes, l);
}
void unpack_swap(std::uint8_t* vals, const word* block, int lanes,
                 int l) noexcept {
  unpack_swap_impl(vals, block, lanes, l);
}
void unpack_swap(std::uint16_t* vals, const word* block, int lanes,
                 int l) noexcept {
  unpack_swap_impl(vals, block, lanes, l);
}

#ifdef MIDAS_BITSLICED_X86

#define MIDAS_AVX512BW_TARGET __attribute__((target("avx512f,avx512bw")))

namespace {

/// The low `n` bits of a 64-bit mask, n clamped to [0, 64].
word low_bits(int n) noexcept {
  if (n <= 0) return 0;
  return n >= 64 ? ~word{0} : (word{1} << n) - 1;
}

}  // namespace

MIDAS_AVX512BW_TARGET void pack_avx512(word* block, const std::uint8_t* vals,
                                       int lanes, int l) noexcept {
  const __m512i v = _mm512_maskz_loadu_epi8(low_bits(lanes), vals);
  const int lo_planes = std::min(l, 8);
  for (int p = 0; p < lo_planes; ++p)
    block[p] = _mm512_test_epi8_mask(v, _mm512_set1_epi8(
                                            static_cast<char>(1 << p)));
  std::fill(block + lo_planes, block + l, word{0});
}

MIDAS_AVX512BW_TARGET void pack_avx512(word* block,
                                       const std::uint16_t* vals, int lanes,
                                       int l) noexcept {
  const auto m0 = static_cast<__mmask32>(low_bits(lanes));
  const auto m1 = static_cast<__mmask32>(low_bits(lanes - 32));
  const __m512i v0 = _mm512_maskz_loadu_epi16(m0, vals);
  const __m512i v1 =
      m1 != 0 ? _mm512_maskz_loadu_epi16(m1, vals + 32) : _mm512_setzero_si512();
  for (int p = 0; p < l; ++p) {
    const __m512i bit = _mm512_set1_epi16(static_cast<short>(1 << p));
    block[p] = word{_mm512_test_epi16_mask(v0, bit)} |
               (word{_mm512_test_epi16_mask(v1, bit)} << 32);
  }
}

MIDAS_AVX512BW_TARGET void unpack_avx512(std::uint8_t* vals, const word* block,
                                         int lanes, int l) noexcept {
  __m512i v = _mm512_setzero_si512();
  const int lo_planes = std::min(l, 8);
  for (int p = 0; p < lo_planes; ++p)
    v = _mm512_or_si512(
        v, _mm512_maskz_set1_epi8(block[p], static_cast<char>(1 << p)));
  _mm512_mask_storeu_epi8(vals, low_bits(lanes), v);
}

MIDAS_AVX512BW_TARGET void unpack_avx512(std::uint16_t* vals,
                                         const word* block, int lanes,
                                         int l) noexcept {
  __m512i v0 = _mm512_setzero_si512(), v1 = _mm512_setzero_si512();
  for (int p = 0; p < l; ++p) {
    const auto bit = static_cast<short>(1 << p);
    v0 = _mm512_or_si512(
        v0, _mm512_maskz_set1_epi16(static_cast<__mmask32>(block[p]), bit));
    v1 = _mm512_or_si512(
        v1,
        _mm512_maskz_set1_epi16(static_cast<__mmask32>(block[p] >> 32), bit));
  }
  _mm512_mask_storeu_epi16(vals, static_cast<__mmask32>(low_bits(lanes)), v0);
  const auto m1 = static_cast<__mmask32>(low_bits(lanes - 32));
  if (m1 != 0) _mm512_mask_storeu_epi16(vals + 32, m1, v1);
}

bool detect_avx512_transposes() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw");
}

#else  // not x86: the delta-swap transposes are the only implementation.

void pack_avx512(word* block, const std::uint8_t* vals, int lanes,
                 int l) noexcept {
  pack_swap(block, vals, lanes, l);
}
void pack_avx512(word* block, const std::uint16_t* vals, int lanes,
                 int l) noexcept {
  pack_swap(block, vals, lanes, l);
}
void unpack_avx512(std::uint8_t* vals, const word* block, int lanes,
                   int l) noexcept {
  unpack_swap(vals, block, lanes, l);
}
void unpack_avx512(std::uint16_t* vals, const word* block, int lanes,
                   int l) noexcept {
  unpack_swap(vals, block, lanes, l);
}

bool detect_avx512_transposes() noexcept { return false; }

#endif

}  // namespace detail_bs

}  // namespace midas::gf
