#ifndef EBI_INDEX_INDEX_FACTORY_H_
#define EBI_INDEX_INDEX_FACTORY_H_

#include <memory>
#include <string>

#include "index/index.h"
#include "util/status.h"

namespace ebi {

/// Index families the library can instantiate by name. Lives in the index
/// layer so both the DBA surface (IndexManager) and the serve tier's
/// snapshots (serve/snapshot.h) construct indexes through the same path.
enum class IndexKind {
  kSimpleBitmap,
  kEncodedBitmap,
  kBitSliced,
  kBaseBitSliced,
  kProjection,
  kBTree,
  kValueList,
  kRangeBasedBitmap,
  kDynamicBitmap,
};

/// Parses "simple", "encoded", "bitsliced", "btree", ... (the names the
/// shell uses); NotFound for unknown names.
Result<IndexKind> IndexKindFromName(const std::string& name);
const char* IndexKindName(IndexKind kind);

/// Instantiates an index of `kind` bound to (column, existence, io). The
/// returned index is unbuilt — call Build() before evaluating.
std::unique_ptr<SecondaryIndex> MakeSecondaryIndex(
    IndexKind kind, const Column* column, const BitVector* existence,
    IoAccountant* io);

}  // namespace ebi

#endif  // EBI_INDEX_INDEX_FACTORY_H_
