#ifndef EBI_STORAGE_COLUMN_H_
#define EBI_STORAGE_COLUMN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace ebi {

/// A typed cell value. NULLs are first-class because the paper devotes
/// explicit treatment to NULL/NotExist codewords (Theorem 2.1).
struct Value {
  enum class Kind : uint8_t { kNull, kInt64, kString };

  Kind kind = Kind::kNull;
  int64_t int_value = 0;
  std::string string_value;

  static Value Null() { return Value(); }
  static Value Int(int64_t v) {
    Value out;
    out.kind = Kind::kInt64;
    out.int_value = v;
    return out;
  }
  static Value Str(std::string v) {
    Value out;
    out.kind = Kind::kString;
    out.string_value = std::move(v);
    return out;
  }

  [[nodiscard]] bool is_null() const { return kind == Kind::kNull; }
  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b) {
    if (a.kind != b.kind) {
      return false;
    }
    switch (a.kind) {
      case Kind::kNull:
        return true;
      case Kind::kInt64:
        return a.int_value == b.int_value;
      case Kind::kString:
        return a.string_value == b.string_value;
    }
    return false;
  }
};

/// Dense identifier of a distinct value within one column's dictionary.
using ValueId = uint32_t;

/// Sentinel ValueId for NULL cells (never allocated to a dictionary entry).
inline constexpr ValueId kNullValueId = UINT32_MAX;

/// A dictionary-encoded in-memory column.
///
/// Every distinct non-NULL value gets a dense ValueId in insertion order;
/// rows store ValueIds. Indexes are built over (row -> ValueId), which is
/// exactly the "attribute domain" the paper's encodings map. The dictionary
/// doubles as the mapping-table value side.
class Column {
 public:
  enum class Type : uint8_t { kInt64, kString };

  Column(std::string name, Type type)
      : name_(std::move(name)), type_(type) {}

  const std::string& name() const { return name_; }
  Type type() const { return type_; }
  size_t size() const { return rows_.size(); }
  /// Number of distinct non-NULL values seen so far (the paper's |A|).
  size_t Cardinality() const { return dict_size_; }
  bool HasNulls() const { return has_nulls_; }

  /// True iff `value` may be stored here: NULL, or of the column's type.
  [[nodiscard]] bool Accepts(const Value& value) const {
    return value.is_null() ||
           value.kind == (type_ == Type::kInt64 ? Value::Kind::kInt64
                                                : Value::Kind::kString);
  }

  /// Appends a value; the column must Accept it.
  Status Append(const Value& value);
  Status AppendInt64(int64_t v) { return Append(Value::Int(v)); }
  Status AppendString(std::string v) {
    return Append(Value::Str(std::move(v)));
  }
  Status AppendNull() { return Append(Value::Null()); }

  /// ValueId of row `row`; kNullValueId for NULL cells.
  [[nodiscard]] ValueId ValueIdAt(size_t row) const { return rows_[row]; }

  /// The dictionary value for `id`.
  const Value& ValueOf(ValueId id) const { return dictionary_[id]; }

  /// The (possibly NULL) value stored at `row`.
  [[nodiscard]] Value ValueAt(size_t row) const;

  /// Looks up the ValueId of a value; nullopt if the value never occurred.
  [[nodiscard]] std::optional<ValueId> Lookup(const Value& value) const;

  /// All ValueIds whose (int64) dictionary value lies in [lo, hi].
  /// Only valid for kInt64 columns.
  [[nodiscard]] std::vector<ValueId> IdsInRange(int64_t lo, int64_t hi) const;

  /// Raw row -> ValueId array (for index builds and projection scans).
  const std::vector<ValueId>& rows() const { return rows_; }

  /// All distinct values in ValueId order.
  const std::vector<Value>& dictionary() const { return dictionary_; }

  /// Approximate heap footprint of the row array in bytes.
  size_t RowBytes() const { return rows_.size() * sizeof(ValueId); }

 private:
  std::string name_;
  Type type_;
  std::vector<ValueId> rows_;
  std::vector<Value> dictionary_;
  std::unordered_map<int64_t, ValueId> int_ids_;
  std::unordered_map<std::string, ValueId> string_ids_;
  size_t dict_size_ = 0;
  bool has_nulls_ = false;
};

}  // namespace ebi

#endif  // EBI_STORAGE_COLUMN_H_
