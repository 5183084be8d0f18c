// AVX-512 backend: 512-bit lanes, 8 words per vector op, and a PCLMULQDQ
// CRC-32. Compiled with -mavx512f -mavx512bw -mpclmul (see
// src/CMakeLists.txt); selected at runtime only when the CPU reports all
// three features, so the table is never reachable on hardware that would
// fault.

#include "util/kernels/backends.h"
#include "util/kernels/kernels.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__PCLMUL__) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/kernels/crc32_pclmul.h"

namespace ebi {
namespace kernels {
namespace {

void AndWords(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i a = _mm512_loadu_si512(dst + i);
    const __m512i b = _mm512_loadu_si512(src + i);
    _mm512_storeu_si512(dst + i, _mm512_and_si512(a, b));
  }
  for (; i < n; ++i) {
    dst[i] &= src[i];
  }
}

void OrWords(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i a = _mm512_loadu_si512(dst + i);
    const __m512i b = _mm512_loadu_si512(src + i);
    _mm512_storeu_si512(dst + i, _mm512_or_si512(a, b));
  }
  for (; i < n; ++i) {
    dst[i] |= src[i];
  }
}

void XorWords(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i a = _mm512_loadu_si512(dst + i);
    const __m512i b = _mm512_loadu_si512(src + i);
    _mm512_storeu_si512(dst + i, _mm512_xor_si512(a, b));
  }
  for (; i < n; ++i) {
    dst[i] ^= src[i];
  }
}

void AndNotWords(uint64_t* dst, const uint64_t* src, size_t n) {
  // a & ~b spelled as a & (b ^ ones): gcc-12's _mm512_andnot_si512
  // expands through a masked builtin whose _mm512_undefined_epi32 operand
  // trips -Wmaybe-uninitialized under the EBI_WERROR build.
  const __m512i ones = _mm512_set1_epi64(-1);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i a = _mm512_loadu_si512(dst + i);
    const __m512i b = _mm512_loadu_si512(src + i);
    _mm512_storeu_si512(dst + i,
                        _mm512_and_si512(a, _mm512_xor_si512(b, ones)));
  }
  for (; i < n; ++i) {
    dst[i] &= ~src[i];
  }
}

void NotWords(uint64_t* dst, size_t n) {
  const __m512i ones = _mm512_set1_epi64(-1);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i a = _mm512_loadu_si512(dst + i);
    _mm512_storeu_si512(dst + i, _mm512_xor_si512(a, ones));
  }
  for (; i < n; ++i) {
    dst[i] = ~dst[i];
  }
}

void FillWords(uint64_t* dst, uint64_t value, size_t n) {
  const __m512i v = _mm512_set1_epi64(static_cast<long long>(value));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_si512(dst + i, v);
  }
  for (; i < n; ++i) {
    dst[i] = value;
  }
}

void CopyWords(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_si512(dst + i, _mm512_loadu_si512(src + i));
  }
  for (; i < n; ++i) {
    dst[i] = src[i];
  }
}

/// Mula's nibble-lookup popcount widened to 512-bit lanes (needs
/// AVX512BW for the byte shuffle/add/SAD).
inline __m512i PopcountLanes(__m512i v) {
  const __m512i lookup = _mm512_set4_epi32(
      0x04030302, 0x03020201, 0x03020201, 0x02010100);
  const __m512i low_mask = _mm512_set1_epi8(0x0f);
  const __m512i lo = _mm512_and_si512(v, low_mask);
  const __m512i hi = _mm512_and_si512(_mm512_srli_epi16(v, 4), low_mask);
  const __m512i counts = _mm512_add_epi8(_mm512_shuffle_epi8(lookup, lo),
                                         _mm512_shuffle_epi8(lookup, hi));
  return _mm512_sad_epu8(counts, _mm512_setzero_si512());
}

size_t PopcountWords(const uint64_t* src, size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_add_epi64(acc, PopcountLanes(_mm512_loadu_si512(src + i)));
  }
  // Not _mm512_reduce_add_epi64: gcc-12's inline expansion of it trips
  // -Wuninitialized on the header's _mm256_undefined_si256, which the
  // EBI_WERROR CI build promotes to an error.
  alignas(64) uint64_t lanes[8];
  _mm512_store_si512(lanes, acc);
  size_t count = 0;
  for (uint64_t lane : lanes) {
    count += static_cast<size_t>(lane);
  }
  for (; i < n; ++i) {
    count += static_cast<size_t>(std::popcount(src[i]));
  }
  return count;
}

void OrMany(uint64_t* dst, const uint64_t* const* srcs, size_t k,
            size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i acc = _mm512_loadu_si512(srcs[0] + i);
    for (size_t j = 1; j < k; ++j) {
      acc = _mm512_or_si512(acc, _mm512_loadu_si512(srcs[j] + i));
    }
    _mm512_storeu_si512(dst + i, acc);
  }
  for (; i < n; ++i) {
    uint64_t acc = srcs[0][i];
    for (size_t j = 1; j < k; ++j) {
      acc |= srcs[j][i];
    }
    dst[i] = acc;
  }
}

void AndMany(uint64_t* dst, const uint64_t* const* srcs, size_t k,
             size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i acc = _mm512_loadu_si512(srcs[0] + i);
    for (size_t j = 1; j < k; ++j) {
      acc = _mm512_and_si512(acc, _mm512_loadu_si512(srcs[j] + i));
    }
    _mm512_storeu_si512(dst + i, acc);
  }
  for (; i < n; ++i) {
    uint64_t acc = srcs[0][i];
    for (size_t j = 1; j < k; ++j) {
      acc &= srcs[j][i];
    }
    dst[i] = acc;
  }
}

constexpr BitmapKernels kAvx512Kernels = {
    "avx512",   AndWords,  OrWords,   XorWords, AndNotWords,
    NotWords,   FillWords, CopyWords, PopcountWords,
    OrMany,     AndMany,   Crc32Pclmul,
};

}  // namespace

const BitmapKernels* Avx512IfSupported() {
  return (__builtin_cpu_supports("avx512f") &&
          __builtin_cpu_supports("avx512bw") &&
          __builtin_cpu_supports("pclmul"))
             ? &kAvx512Kernels
             : nullptr;
}

}  // namespace kernels
}  // namespace ebi

#else  // !(__AVX512F__ && __AVX512BW__ && __PCLMUL__ && x86)

namespace ebi {
namespace kernels {

const BitmapKernels* Avx512IfSupported() { return nullptr; }

}  // namespace kernels
}  // namespace ebi

#endif
