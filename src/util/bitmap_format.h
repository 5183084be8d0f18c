#ifndef EBI_UTIL_BITMAP_FORMAT_H_
#define EBI_UTIL_BITMAP_FORMAT_H_

#include <cstdint>
#include <string>

namespace ebi {

/// Physical representation of a stored bitmap vector.
///
/// Every index stores plain vectors except SimpleBitmapIndex, whose
/// per-value vectors may be EWAH-compressed (SimpleBitmapIndexOptions);
/// the format decides how many bytes a vector read charges to the
/// IoAccountant:
///
///   kPlain — one bit per tuple, word-aligned (BitVector).
///   kEwah  — word-aligned hybrid (EwahBitmap): marker words carry a
///            clean-run length plus a literal count, so logical operations
///            run directly on the compressed form at word granularity.
///            It wins only on very sparse vectors (DESIGN.md §4).
enum class BitmapFormat : uint8_t {
  kPlain = 0,
  kEwah = 1,
};

/// Short stable name, "plain" or "ewah".
inline const char* BitmapFormatName(BitmapFormat format) {
  switch (format) {
    case BitmapFormat::kPlain:
      return "plain";
    case BitmapFormat::kEwah:
      return "ewah";
  }
  return "?";
}

/// Index-name suffix: "" for the default plain format, "-ewah" otherwise,
/// so SimpleBitmapIndex reports "simple-bitmap-ewah".
inline std::string BitmapFormatSuffix(BitmapFormat format) {
  return format == BitmapFormat::kPlain
             ? std::string()
             : std::string("-") + BitmapFormatName(format);
}

}  // namespace ebi

#endif  // EBI_UTIL_BITMAP_FORMAT_H_
