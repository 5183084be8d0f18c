#include "index/index_factory.h"

#include "index/base_bit_sliced_index.h"
#include "index/bit_sliced_index.h"
#include "index/btree_index.h"
#include "index/dynamic_bitmap_index.h"
#include "index/encoded_bitmap_index.h"
#include "index/projection_index.h"
#include "index/range_based_bitmap_index.h"
#include "index/simple_bitmap_index.h"
#include "index/value_list_index.h"

namespace ebi {

Result<IndexKind> IndexKindFromName(const std::string& name) {
  if (name == "simple") {
    return IndexKind::kSimpleBitmap;
  }
  if (name == "encoded") {
    return IndexKind::kEncodedBitmap;
  }
  if (name == "bitsliced") {
    return IndexKind::kBitSliced;
  }
  if (name == "bitsliced-base10") {
    return IndexKind::kBaseBitSliced;
  }
  if (name == "projection") {
    return IndexKind::kProjection;
  }
  if (name == "btree") {
    return IndexKind::kBTree;
  }
  if (name == "valuelist") {
    return IndexKind::kValueList;
  }
  if (name == "rangebased") {
    return IndexKind::kRangeBasedBitmap;
  }
  if (name == "dynamic") {
    return IndexKind::kDynamicBitmap;
  }
  return Status::NotFound("unknown index kind '" + name + "'");
}

const char* IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kSimpleBitmap:
      return "simple";
    case IndexKind::kEncodedBitmap:
      return "encoded";
    case IndexKind::kBitSliced:
      return "bitsliced";
    case IndexKind::kBaseBitSliced:
      return "bitsliced-base10";
    case IndexKind::kProjection:
      return "projection";
    case IndexKind::kBTree:
      return "btree";
    case IndexKind::kValueList:
      return "valuelist";
    case IndexKind::kRangeBasedBitmap:
      return "rangebased";
    case IndexKind::kDynamicBitmap:
      return "dynamic";
  }
  return "?";
}

std::unique_ptr<SecondaryIndex> MakeSecondaryIndex(
    IndexKind kind, const Column* column, const BitVector* existence,
    IoAccountant* io) {
  switch (kind) {
    case IndexKind::kSimpleBitmap:
      return std::make_unique<SimpleBitmapIndex>(column, existence, io);
    case IndexKind::kEncodedBitmap:
      return std::make_unique<EncodedBitmapIndex>(column, existence, io);
    case IndexKind::kBitSliced:
      return std::make_unique<BitSlicedIndex>(column, existence, io);
    case IndexKind::kBaseBitSliced:
      return std::make_unique<BaseBitSlicedIndex>(column, existence, io);
    case IndexKind::kProjection:
      return std::make_unique<ProjectionIndex>(column, existence, io);
    case IndexKind::kBTree:
      return std::make_unique<BTreeIndex>(column, existence, io);
    case IndexKind::kValueList:
      return std::make_unique<ValueListIndex>(column, existence, io);
    case IndexKind::kRangeBasedBitmap:
      return std::make_unique<RangeBasedBitmapIndex>(column, existence, io);
    case IndexKind::kDynamicBitmap:
      return std::make_unique<DynamicBitmapIndex>(column, existence, io);
  }
  return nullptr;
}

}  // namespace ebi
