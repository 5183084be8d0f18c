#ifndef EBI_INDEX_DYNAMIC_BITMAP_INDEX_H_
#define EBI_INDEX_DYNAMIC_BITMAP_INDEX_H_

#include "index/encoded_bitmap_index.h"

namespace ebi {

/// The dynamic bitmap of Sarawagi (Section 4, [13]): the n distinct values
/// of a high-cardinality attribute are mapped onto n consecutive
/// log2(n)-bit integers, built on demand.
///
/// As the paper notes, this is a special case of encoded bitmap indexing
/// whose encoding "trivially maps the domain onto a continuous integer
/// set" and where "the significance of encoding was not discussed" — so
/// it is an EncodedBitmapIndex preset: sequential codes, no reserved void
/// codeword (existence is handled by the mandatory AND instead), and its
/// own name, which its copy-on-write clones keep.
class DynamicBitmapIndex : public EncodedBitmapIndex {
 public:
  DynamicBitmapIndex(const Column* column, const BitVector* existence,
                     IoAccountant* io)
      : EncodedBitmapIndex(column, existence, io, {}, "dynamic-bitmap") {
    options_.reserve_void_zero = false;
  }
};

}  // namespace ebi

#endif  // EBI_INDEX_DYNAMIC_BITMAP_INDEX_H_
