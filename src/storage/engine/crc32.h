#ifndef EBI_STORAGE_ENGINE_CRC32_H_
#define EBI_STORAGE_ENGINE_CRC32_H_

#include <cstddef>
#include <cstdint>

#include "util/kernels/kernels.h"

namespace ebi {
namespace engine {

/// CRC-32 (IEEE 802.3 polynomial, reflected) over a byte range. Every
/// checksummed unit the storage engine persists — page headers, WAL
/// records, the extent-map sidecar — goes through this one function, so
/// the on-disk format has exactly one checksum definition. The work runs
/// on the active kernel backend (kernels::BitmapKernels::crc32:
/// slicing-by-8 tables or PCLMULQDQ folding), which every backend
/// computes bit-identically — tests/kernel_differential_test.cc holds
/// each one to a bitwise reference.
///
/// `seed` chains partial computations: Crc32(b, n2, Crc32(a, n1)) equals
/// Crc32 over the concatenation of a and b.
inline uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0) {
  return kernels::Active().crc32(static_cast<const uint8_t*>(data), size,
                                 seed);
}

}  // namespace engine
}  // namespace ebi

#endif  // EBI_STORAGE_ENGINE_CRC32_H_
