#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/kernels/backends.h"
#include "util/kernels/kernels.h"

namespace ebi {
namespace kernels {
namespace {

// Portable word-at-a-time reference backend. Deliberately plain loops:
// this is the oracle the differential harness holds every vectorized
// backend against, so it favors being obviously correct over being fast
// (the compiler's autovectorizer still does fine on it).

void AndWords(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    dst[i] &= src[i];
  }
}

void OrWords(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    dst[i] |= src[i];
  }
}

void XorWords(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    dst[i] ^= src[i];
  }
}

void AndNotWords(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    dst[i] &= ~src[i];
  }
}

void NotWords(uint64_t* dst, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    dst[i] = ~dst[i];
  }
}

void FillWords(uint64_t* dst, uint64_t value, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    dst[i] = value;
  }
}

void CopyWords(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    dst[i] = src[i];
  }
}

size_t PopcountWords(const uint64_t* src, size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    count += static_cast<size_t>(std::popcount(src[i]));
  }
  return count;
}

void OrMany(uint64_t* dst, const uint64_t* const* srcs, size_t k,
            size_t n) {
  for (size_t i = 0; i < n; ++i) {
    uint64_t acc = srcs[0][i];
    for (size_t j = 1; j < k; ++j) {
      acc |= srcs[j][i];
    }
    dst[i] = acc;
  }
}

void AndMany(uint64_t* dst, const uint64_t* const* srcs, size_t k,
             size_t n) {
  for (size_t i = 0; i < n; ++i) {
    uint64_t acc = srcs[0][i];
    for (size_t j = 1; j < k; ++j) {
      acc &= srcs[j][i];
    }
    dst[i] = acc;
  }
}

// Slicing-by-8 tables for the reflected IEEE polynomial: kCrcTables[0] is
// the classic byte table, kCrcTables[k][b] the CRC of byte b followed by k
// zero bytes, so one step folds 8 input bytes with 8 independent lookups.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0xEDB88320u : 0u);
    }
    t[0][i] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

/// Little-endian 32-bit load from unaligned bytes.
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

constexpr BitmapKernels kScalarKernels = {
    "scalar",    AndWords, OrWords,        XorWords, AndNotWords,
    NotWords,    FillWords, CopyWords,     PopcountWords,
    OrMany,      AndMany,  Crc32Slicing8,
};

}  // namespace

uint32_t Crc32Slicing8(const uint8_t* data, size_t n, uint32_t seed) {
  const CrcTables& t = kCrcTables;
  uint32_t crc = ~seed;
  for (; n >= 8; data += 8, n -= 8) {
    const uint32_t lo = LoadLe32(data) ^ crc;
    const uint32_t hi = LoadLe32(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
          t[0][hi >> 24];
  }
  for (; n > 0; ++data, --n) {
    crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xFFu];
  }
  return ~crc;
}

const BitmapKernels& Scalar() { return kScalarKernels; }

}  // namespace kernels
}  // namespace ebi
