#include "storage/table.h"

namespace ebi {

Status Table::AddColumn(std::string name, Column::Type type) {
  if (num_rows_ != 0) {
    return Status::FailedPrecondition(
        "cannot add column to non-empty table " + name_);
  }
  for (const auto& c : columns_) {
    if (c->name() == name) {
      return Status::AlreadyExists("column " + name + " already exists");
    }
  }
  columns_.push_back(std::make_unique<Column>(std::move(name), type));
  return Status::OK();
}

Status Table::CheckRow(const std::vector<Value>& values) const {
  if (values.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(values.size()) + " != " +
        std::to_string(columns_.size()) + " columns");
  }
  for (size_t i = 0; i < values.size(); ++i) {
    if (!columns_[i]->Accepts(values[i])) {
      return Status::InvalidArgument("type mismatch in column " +
                                     columns_[i]->name());
    }
  }
  return Status::OK();
}

Status Table::AppendRow(const std::vector<Value>& values) {
  // Validate all appends would succeed before mutating (columns stay
  // aligned even on type errors).
  EBI_RETURN_IF_ERROR(CheckRow(values));
  for (size_t i = 0; i < values.size(); ++i) {
    EBI_RETURN_IF_ERROR(columns_[i]->Append(values[i]));
  }
  ++num_rows_;
  existence_.PushBack(true);
  return Status::OK();
}

Status Table::DeleteRow(size_t row) {
  if (row >= num_rows_) {
    return Status::OutOfRange("row " + std::to_string(row) +
                              " out of range");
  }
  existence_.Reset(row);
  return Status::OK();
}

Table Table::Clone() const {
  Table copy(name_);
  copy.columns_.reserve(columns_.size());
  for (const auto& c : columns_) {
    copy.columns_.push_back(std::make_unique<Column>(*c));
  }
  copy.num_rows_ = num_rows_;
  copy.existence_ = existence_;
  return copy;
}

Result<const Column*> Table::FindColumn(const std::string& name) const {
  for (const auto& c : columns_) {
    if (c->name() == name) {
      return static_cast<const Column*>(c.get());
    }
  }
  return Status::NotFound("column " + name + " not found in " + name_);
}

Result<Column*> Table::FindColumn(const std::string& name) {
  for (const auto& c : columns_) {
    if (c->name() == name) {
      return c.get();
    }
  }
  return Status::NotFound("column " + name + " not found in " + name_);
}

Result<size_t> Table::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i]->name() == name) {
      return i;
    }
  }
  return Status::NotFound("column " + name + " not found in " + name_);
}

}  // namespace ebi
