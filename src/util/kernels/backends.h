#ifndef EBI_UTIL_KERNELS_BACKENDS_H_
#define EBI_UTIL_KERNELS_BACKENDS_H_

#include "util/kernels/kernels.h"

namespace ebi {
namespace kernels {

/// Internal registration points, one per backend translation unit. Each
/// returns its kernel table iff (a) the compiler could build the backend
/// for the target architecture and (b) the running CPU can execute it —
/// both checks live inside the backend's own file, so adding a backend
/// means adding one .cc and one line to BuildSupported() in kernels.cc.
const BitmapKernels* Avx2IfSupported();
const BitmapKernels* Avx512IfSupported();
const BitmapKernels* NeonIfSupported();

/// Slicing-by-8 CRC-32 (the scalar backend's crc32 entry). Shared by the
/// neon table and by the PCLMULQDQ backends, which fold whole 16-byte
/// lanes and hand it the inputs too short to fold and the final tail.
uint32_t Crc32Slicing8(const uint8_t* data, size_t n, uint32_t seed);

}  // namespace kernels
}  // namespace ebi

#endif  // EBI_UTIL_KERNELS_BACKENDS_H_
