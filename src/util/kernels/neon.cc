// NEON backend for aarch64: 128-bit lanes, 2 words per vector op. NEON is
// architecturally mandatory on aarch64, so the only gate is the target
// architecture itself — no runtime feature probe is needed.

#include "util/kernels/backends.h"
#include "util/kernels/kernels.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <bit>
#include <cstddef>
#include <cstdint>

namespace ebi {
namespace kernels {
namespace {

void AndWords(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, vandq_u64(vld1q_u64(dst + i), vld1q_u64(src + i)));
  }
  for (; i < n; ++i) {
    dst[i] &= src[i];
  }
}

void OrWords(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, vorrq_u64(vld1q_u64(dst + i), vld1q_u64(src + i)));
  }
  for (; i < n; ++i) {
    dst[i] |= src[i];
  }
}

void XorWords(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, veorq_u64(vld1q_u64(dst + i), vld1q_u64(src + i)));
  }
  for (; i < n; ++i) {
    dst[i] ^= src[i];
  }
}

void AndNotWords(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    // vbicq_u64(a, b) computes a & ~b.
    vst1q_u64(dst + i, vbicq_u64(vld1q_u64(dst + i), vld1q_u64(src + i)));
  }
  for (; i < n; ++i) {
    dst[i] &= ~src[i];
  }
}

void NotWords(uint64_t* dst, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint8x16_t a = vreinterpretq_u8_u64(vld1q_u64(dst + i));
    vst1q_u64(dst + i, vreinterpretq_u64_u8(vmvnq_u8(a)));
  }
  for (; i < n; ++i) {
    dst[i] = ~dst[i];
  }
}

void FillWords(uint64_t* dst, uint64_t value, size_t n) {
  const uint64x2_t v = vdupq_n_u64(value);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, v);
  }
  for (; i < n; ++i) {
    dst[i] = value;
  }
}

void CopyWords(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, vld1q_u64(src + i));
  }
  for (; i < n; ++i) {
    dst[i] = src[i];
  }
}

size_t PopcountWords(const uint64_t* src, size_t n) {
  size_t count = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint8x16_t bytes = vreinterpretq_u8_u64(vld1q_u64(src + i));
    count += static_cast<size_t>(vaddvq_u8(vcntq_u8(bytes)));
  }
  for (; i < n; ++i) {
    count += static_cast<size_t>(std::popcount(src[i]));
  }
  return count;
}

void OrMany(uint64_t* dst, const uint64_t* const* srcs, size_t k,
            size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    uint64x2_t acc = vld1q_u64(srcs[0] + i);
    for (size_t j = 1; j < k; ++j) {
      acc = vorrq_u64(acc, vld1q_u64(srcs[j] + i));
    }
    vst1q_u64(dst + i, acc);
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
  for (; i + 2 <= n; i += 2) {
    uint64x2_t acc = vld1q_u64(srcs[0] + i);
    for (size_t j = 1; j < k; ++j) {
      acc = vandq_u64(acc, vld1q_u64(srcs[j] + i));
    }
    vst1q_u64(dst + i, acc);
  }
  for (; i < n; ++i) {
    uint64_t acc = srcs[0][i];
    for (size_t j = 1; j < k; ++j) {
      acc &= srcs[j][i];
    }
    dst[i] = acc;
  }
}

constexpr BitmapKernels kNeonKernels = {
    "neon",     AndWords,  OrWords,   XorWords, AndNotWords,
    NotWords,   FillWords, CopyWords, PopcountWords,
    OrMany,     AndMany,   Crc32Slicing8,
};

}  // namespace

const BitmapKernels* NeonIfSupported() { return &kNeonKernels; }

}  // namespace kernels
}  // namespace ebi

#else  // !__aarch64__

namespace ebi {
namespace kernels {

const BitmapKernels* NeonIfSupported() { return nullptr; }

}  // namespace kernels
}  // namespace ebi

#endif
