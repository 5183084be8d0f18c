#include "query/index_manager.h"

namespace ebi {

Result<SecondaryIndex*> IndexManager::CreateIndex(const std::string& column,
                                                  IndexKind kind) {
  for (const Entry& entry : entries_) {
    if (entry.column == column && entry.kind == kind) {
      return Status::AlreadyExists(std::string(IndexKindName(kind)) +
                                   " index on " + column +
                                   " already exists");
    }
  }
  EBI_ASSIGN_OR_RETURN(const Column* col, table_->FindColumn(column));
  std::unique_ptr<SecondaryIndex> index =
      MakeSecondaryIndex(kind, col, &table_->existence(), io_);
  if (index == nullptr) {
    return Status::Internal("unknown index kind");
  }
  EBI_RETURN_IF_ERROR(index->Build());

  Entry entry;
  entry.column = column;
  entry.kind = kind;
  entry.index = std::move(index);
  SecondaryIndex* raw = entry.index.get();
  entries_.push_back(std::move(entry));
  executor_.RegisterIndex(column, raw);
  EBI_RETURN_IF_ERROR(maintenance_.AttachIndex(raw));
  return raw;
}

Status IndexManager::DropIndex(const std::string& column, IndexKind kind) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->column == column && it->kind == kind) {
      entries_.erase(it);
      Rewire();
      return Status::OK();
    }
  }
  return Status::NotFound(std::string(IndexKindName(kind)) +
                          " index on " + column + " not found");
}

std::vector<SecondaryIndex*> IndexManager::IndexesOn(
    const std::string& column) const {
  std::vector<SecondaryIndex*> out;
  for (const Entry& entry : entries_) {
    if (entry.column == column) {
      out.push_back(entry.index.get());
    }
  }
  return out;
}

size_t IndexManager::TotalSizeBytes() const {
  size_t total = 0;
  for (const Entry& entry : entries_) {
    total += entry.index->SizeBytes();
  }
  return total;
}

void IndexManager::Rewire() {
  executor_.Clear();
  maintenance_.Clear();
  for (const Entry& entry : entries_) {
    executor_.RegisterIndex(entry.column, entry.index.get());
    // Entries are unique owning pointers, so re-attachment cannot see a
    // null or duplicate index.
    maintenance_.AttachIndex(entry.index.get()).IgnoreError();
  }
}

}  // namespace ebi
