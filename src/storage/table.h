#ifndef EBI_STORAGE_TABLE_H_
#define EBI_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/column.h"
#include "util/bitvector.h"
#include "util/status.h"

namespace ebi {

/// An in-memory table of dictionary-encoded columns, appended row-wise.
///
/// Tables model both fact and dimension tables of a star schema. Rows can
/// be logically deleted; the existence bitmap backs the paper's NotExist
/// discussion (void tuples, Theorem 2.1).
class Table {
 public:
  explicit Table(std::string name) : name_(std::move(name)) {}

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  const std::string& name() const { return name_; }
  size_t NumRows() const { return num_rows_; }
  size_t NumColumns() const { return columns_.size(); }

  /// Adds a column; must be called before any rows are appended.
  Status AddColumn(std::string name, Column::Type type);

  /// Checks that `values` can be appended as one row: one value per
  /// column, each accepted by its column. InvalidArgument otherwise.
  Status CheckRow(const std::vector<Value>& values) const;

  /// Appends one row; `values` must pass CheckRow.
  Status AppendRow(const std::vector<Value>& values);

  /// Marks a row as deleted (void). The physical slot remains.
  Status DeleteRow(size_t row);

  /// True if `row` exists (appended and not deleted).
  [[nodiscard]] bool RowExists(size_t row) const {
    return existence_.Get(row);
  }

  /// Bitmap with bit j set iff row j exists.
  const BitVector& existence() const { return existence_; }

  /// Column access by position or name.
  const Column& column(size_t i) const { return *columns_[i]; }
  Column& column(size_t i) { return *columns_[i]; }
  Result<const Column*> FindColumn(const std::string& name) const;
  Result<Column*> FindColumn(const std::string& name);

  /// Index of a column by name, or NotFound.
  Result<size_t> ColumnIndex(const std::string& name) const;

  /// Deep copy: columns (rows, dictionaries), existence bitmap and row
  /// count. The copy shares nothing with the source — the serving layer
  /// clones the current snapshot's table before applying an append batch
  /// so published snapshots stay immutable (DESIGN.md §9).
  [[nodiscard]] Table Clone() const;

 private:
  std::string name_;
  std::vector<std::unique_ptr<Column>> columns_;
  size_t num_rows_ = 0;
  BitVector existence_;
};

}  // namespace ebi

#endif  // EBI_STORAGE_TABLE_H_
