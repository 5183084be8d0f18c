#ifndef EBI_QUERY_INDEX_MANAGER_H_
#define EBI_QUERY_INDEX_MANAGER_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "index/index.h"
#include "index/index_factory.h"
#include "query/executor.h"
#include "query/maintenance.h"
#include "storage/table.h"
#include "util/status.h"

namespace ebi {

// IndexKind, IndexKindFromName, IndexKindName and MakeSecondaryIndex
// live in index/index_factory.h, shared with the serve tier's snapshots;
// this include keeps them visible to users of this header.

/// Owns every index of one table and keeps the moving parts wired
/// together: CREATE INDEX builds the structure and registers it with both
/// the selection executor (several per column is encouraged; it chooses
/// among them per predicate) and the maintenance driver, so
/// appends/deletes and planned selections stay consistent without the
/// caller juggling objects — the "DBA surface" of the library.
class IndexManager {
 public:
  IndexManager(Table* table, IoAccountant* io)
      : table_(table),
        io_(io),
        executor_(table, io),
        maintenance_(table) {}

  IndexManager(const IndexManager&) = delete;
  IndexManager& operator=(const IndexManager&) = delete;

  /// Builds an index of `kind` on `column` and registers it everywhere.
  /// Returns the index for kind-specific calls (aggregates etc.).
  Result<SecondaryIndex*> CreateIndex(const std::string& column,
                                      IndexKind kind);

  /// Drops the index of `kind` on `column`.
  Status DropIndex(const std::string& column, IndexKind kind);

  /// All indexes on `column` (empty if none).
  std::vector<SecondaryIndex*> IndexesOn(const std::string& column) const;

  /// Appends a row to the table and every index (domain expansion
  /// included); DeleteRow propagates too.
  Status AppendRow(const std::vector<Value>& values) {
    return maintenance_.AppendRow(values);
  }
  /// Batched append — one coalesced index extension per column.
  Status AppendRows(const std::vector<std::vector<Value>>& rows) {
    return maintenance_.AppendRows(rows);
  }
  Status DeleteRow(size_t row) { return maintenance_.DeleteRow(row); }

  /// Planned conjunctive selection over all registered indexes.
  Result<SelectionResult> Select(const std::vector<Predicate>& predicates,
                                 std::vector<AccessPath>* paths = nullptr) {
    return executor_.Select(predicates, paths);
  }

  size_t NumIndexes() const { return entries_.size(); }

  /// Total bytes across all indexes.
  size_t TotalSizeBytes() const;

 private:
  struct Entry {
    std::string column;
    IndexKind kind;
    std::unique_ptr<SecondaryIndex> index;
  };

  /// Rebuilds executor and maintenance registrations from `entries_`.
  void Rewire();

  Table* table_;
  IoAccountant* io_;
  SelectionExecutor executor_;
  MaintenanceDriver maintenance_;
  std::vector<Entry> entries_;
};

}  // namespace ebi

#endif  // EBI_QUERY_INDEX_MANAGER_H_
