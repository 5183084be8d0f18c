#ifndef EBI_UTIL_KERNELS_KERNELS_H_
#define EBI_UTIL_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ebi {
namespace kernels {

/// A complete set of bulk bitmap primitives over spans of 64-bit words.
///
/// Every BitVector hot loop funnels through one of these function
/// pointers instead of open-coding the word loop, so the whole Boolean
/// evaluation stack (min-term covers, fan-out merges) picks up SIMD for
/// free once a vectorized backend is selected.
///
/// Contracts shared by every implementation:
///   * `n` is a count of 64-bit words; n == 0 is a no-op (pointers may
///     then be null).
///   * Pointers are 8-byte aligned (they come from std::vector<uint64_t>)
///     but carry no wider alignment guarantee — backends must use
///     unaligned vector loads/stores.
///   * Binary ops allow dst == src (they are element-wise in-place safe);
///     distinct dst/src spans must not partially overlap.
///   * `or_many` / `and_many` take `k >= 1` source spans and fully
///     overwrite dst. srcs[j] == dst is allowed for any j (dst[i] is
///     written only after every srcs[j][i] is read).
///
/// The scalar backend is the oracle: tests/kernel_differential_test.cc
/// proves every other backend bit-identical to it before any benchmark
/// number is trusted (DESIGN.md §10).
struct BitmapKernels {
  /// Stable lower-case backend id: "scalar", "avx2", "avx512", "neon".
  const char* name;

  /// dst[i] &= src[i].
  void (*and_words)(uint64_t* dst, const uint64_t* src, size_t n);
  /// dst[i] |= src[i].
  void (*or_words)(uint64_t* dst, const uint64_t* src, size_t n);
  /// dst[i] ^= src[i].
  void (*xor_words)(uint64_t* dst, const uint64_t* src, size_t n);
  /// dst[i] &= ~src[i].
  void (*andnot_words)(uint64_t* dst, const uint64_t* src, size_t n);
  /// dst[i] = ~dst[i].
  void (*not_words)(uint64_t* dst, size_t n);
  /// dst[i] = value.
  void (*fill_words)(uint64_t* dst, uint64_t value, size_t n);
  /// dst[i] = src[i] (non-overlapping).
  void (*copy_words)(uint64_t* dst, const uint64_t* src, size_t n);
  /// Total set bits over the span.
  size_t (*popcount_words)(const uint64_t* src, size_t n);
  /// dst[i] = srcs[0][i] | ... | srcs[k-1][i], k >= 1. One pass over
  /// memory instead of k-1 chained binary ORs (the paper's min-term OR
  /// chains and DNF merges are exactly this shape).
  void (*or_many)(uint64_t* dst, const uint64_t* const* srcs, size_t k,
                  size_t n);
  /// dst[i] = srcs[0][i] & ... & srcs[k-1][i], k >= 1.
  void (*and_many)(uint64_t* dst, const uint64_t* const* srcs, size_t k,
                   size_t n);
  /// CRC-32 (IEEE 802.3 polynomial, reflected) of `n` bytes — the one
  /// checksum of the storage engine's pages, WAL frames and extent-map
  /// sidecar. Unlike the word entries, `data` has no alignment. `seed`
  /// chains partial computations: crc32(b, nb, crc32(a, na, 0)) equals
  /// crc32 over the concatenation of a and b. scalar and neon use
  /// slicing-by-8 tables; avx2 and avx512 fold 4x128 bits per step with
  /// PCLMULQDQ and finish with a Barrett reduction.
  uint32_t (*crc32)(const uint8_t* data, size_t n, uint32_t seed);
};

/// The backend the running CPU supports best, selected exactly once (on
/// first call, thread-safe) in priority order avx512 > avx2 > neon >
/// scalar. The environment variable EBI_FORCE_KERNEL overrides the pick
/// for testing; an unknown or unsupported name is diagnosed on stderr and
/// ignored, so a mis-pinned CI leg degrades to auto-detection instead of
/// dying on SIGILL.
const BitmapKernels& Active();

/// The portable reference backend (always available, the differential
/// oracle).
const BitmapKernels& Scalar();

/// Every backend the running CPU can execute, scalar first. The
/// differential harness and the throughput bench iterate this, so a new
/// backend is covered by registering it here.
const std::vector<const BitmapKernels*>& Supported();

/// Looks up a supported backend by name; nullptr if unknown or not
/// executable on this CPU.
const BitmapKernels* ByName(const char* name);

}  // namespace kernels
}  // namespace ebi

#endif  // EBI_UTIL_KERNELS_KERNELS_H_
