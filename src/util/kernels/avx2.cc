// AVX2 backend: 256-bit lanes, 4 words per vector op, and a PCLMULQDQ
// CRC-32. This translation unit is compiled with -mavx2 -mpclmul (see
// src/CMakeLists.txt); nothing in it may run before Avx2IfSupported()
// has confirmed the CPU, which is why the kernel table is reached only
// through that accessor.

#include "util/kernels/backends.h"
#include "util/kernels/kernels.h"

#if defined(__AVX2__) && defined(__PCLMUL__) && \
    (defined(__x86_64__) || defined(__i386__))

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
  for (; i + 4 <= n; i += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(a, b));
  }
  for (; i < n; ++i) {
    dst[i] &= src[i];
  }
}

void OrWords(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(a, b));
  }
  for (; i < n; ++i) {
    dst[i] |= src[i];
  }
}

void XorWords(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(a, b));
  }
  for (; i < n; ++i) {
    dst[i] ^= src[i];
  }
}

void AndNotWords(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    // _mm256_andnot_si256(b, a) computes (~b) & a.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_andnot_si256(b, a));
  }
  for (; i < n; ++i) {
    dst[i] &= ~src[i];
  }
}

void NotWords(uint64_t* dst, size_t n) {
  const __m256i ones = _mm256_set1_epi64x(-1);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(a, ones));
  }
  for (; i < n; ++i) {
    dst[i] = ~dst[i];
  }
}

void FillWords(uint64_t* dst, uint64_t value, size_t n) {
  const __m256i v = _mm256_set1_epi64x(static_cast<long long>(value));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), v);
  }
  for (; i < n; ++i) {
    dst[i] = value;
  }
}

void CopyWords(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i)));
  }
  for (; i < n; ++i) {
    dst[i] = src[i];
  }
}

/// Per-byte popcount via two 16-entry nibble lookups (Mula's method),
/// horizontally summed into four 64-bit lanes by SAD against zero.
inline __m256i PopcountLanes(__m256i v) {
  const __m256i lookup = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                         _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

size_t PopcountWords(const uint64_t* src, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    acc = _mm256_add_epi64(acc, PopcountLanes(v));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  size_t count = static_cast<size_t>(lanes[0] + lanes[1] + lanes[2] +
                                     lanes[3]);
  for (; i < n; ++i) {
    count += static_cast<size_t>(std::popcount(src[i]));
  }
  return count;
}

void OrMany(uint64_t* dst, const uint64_t* const* srcs, size_t k,
            size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i acc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[0] + i));
    for (size_t j = 1; j < k; ++j) {
      acc = _mm256_or_si256(
          acc,
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + i)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), acc);
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
  for (; i + 4 <= n; i += 4) {
    __m256i acc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[0] + i));
    for (size_t j = 1; j < k; ++j) {
      acc = _mm256_and_si256(
          acc,
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + i)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), acc);
  }
  for (; i < n; ++i) {
    uint64_t acc = srcs[0][i];
    for (size_t j = 1; j < k; ++j) {
      acc &= srcs[j][i];
    }
    dst[i] = acc;
  }
}

constexpr BitmapKernels kAvx2Kernels = {
    "avx2",     AndWords,  OrWords,   XorWords, AndNotWords,
    NotWords,   FillWords, CopyWords, PopcountWords,
    OrMany,     AndMany,   Crc32Pclmul,
};

}  // namespace

const BitmapKernels* Avx2IfSupported() {
  return (__builtin_cpu_supports("avx2") &&
          __builtin_cpu_supports("pclmul"))
             ? &kAvx2Kernels
             : nullptr;
}

}  // namespace kernels
}  // namespace ebi

#else  // !(__AVX2__ && __PCLMUL__ && x86)

namespace ebi {
namespace kernels {

const BitmapKernels* Avx2IfSupported() { return nullptr; }

}  // namespace kernels
}  // namespace ebi

#endif
