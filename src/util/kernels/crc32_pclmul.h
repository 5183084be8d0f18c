#ifndef EBI_UTIL_KERNELS_CRC32_PCLMUL_H_
#define EBI_UTIL_KERNELS_CRC32_PCLMUL_H_

// CRC-32 by carry-less multiplication, shared by the avx2 and avx512
// backends. Include only from a translation unit compiled with -mpclmul
// (and SSE4.1, which -mavx2 implies) whose table is reached behind a
// runtime PCLMULQDQ check. The function has internal linkage, so each
// backend gets its own copy built with its own ISA flags.
//
// Method: Gopal et al., "Fast CRC Computation for Generic Polynomials
// Using PCLMULQDQ Instruction" (Intel, 2009), in the bit-reflected
// domain. Four 128-bit accumulators fold 64 input bytes per step, fold
// into one lane, then 16 bytes per step; the lane is reduced to 64 and
// then 32 bits, the last step a Barrett reduction. The constants are
// x^k mod P(x) for the IEEE polynomial P = 0x104C11DB7, bit-reflected.

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "util/kernels/backends.h"

namespace ebi {
namespace kernels {
namespace {

uint32_t Crc32Pclmul(const uint8_t* data, size_t n, uint32_t seed) {
  if (n < 64) {
    return Crc32Slicing8(data, n, seed);
  }
  const auto load = [](const uint8_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };
  // (k1, k2): fold by 512 bits; (k3, k4): fold by 128 bits; k5: 64 -> 32
  // bits; (P', mu): the Barrett pair.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);

  const size_t folded = n & ~size_t{15};
  const uint8_t* p = data;
  const uint8_t* const end = data + folded;

  __m128i x1 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(~seed)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  for (; end - p >= 64; p += 64) {
    const __m128i l1 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
    const __m128i l2 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
    const __m128i l3 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
    const __m128i l4 = _mm_clmulepi64_si128(x4, k1k2, 0x00);
    x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k1k2, 0x11), l1);
    x2 = _mm_xor_si128(_mm_clmulepi64_si128(x2, k1k2, 0x11), l2);
    x3 = _mm_xor_si128(_mm_clmulepi64_si128(x3, k1k2, 0x11), l3);
    x4 = _mm_xor_si128(_mm_clmulepi64_si128(x4, k1k2, 0x11), l4);
    x1 = _mm_xor_si128(x1, load(p));
    x2 = _mm_xor_si128(x2, load(p + 16));
    x3 = _mm_xor_si128(x3, load(p + 32));
    x4 = _mm_xor_si128(x4, load(p + 48));
  }
  // Fold the four lanes into one, then any remaining 16-byte blocks.
  const auto fold16 = [&k3k4](__m128i acc, __m128i next) {
    const __m128i lo = _mm_clmulepi64_si128(acc, k3k4, 0x00);
    const __m128i hi = _mm_clmulepi64_si128(acc, k3k4, 0x11);
    return _mm_xor_si128(_mm_xor_si128(hi, next), lo);
  };
  x1 = fold16(x1, x2);
  x1 = fold16(x1, x3);
  x1 = fold16(x1, x4);
  for (; p < end; p += 16) {
    x1 = fold16(x1, load(p));
  }
  // 128 -> 64 bits.
  x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  // 64 -> 32 bits.
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  // Barrett reduction to the 32-bit remainder.
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, mask32), poly, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  const uint32_t state = static_cast<uint32_t>(_mm_extract_epi32(x1, 1));
  // The tail under 16 bytes goes through the table, seeded with the
  // folded CRC.
  return Crc32Slicing8(end, n - folded, ~state);
}

}  // namespace
}  // namespace kernels
}  // namespace ebi

#endif  // EBI_UTIL_KERNELS_CRC32_PCLMUL_H_
