#include "storage/column.h"

namespace ebi {

std::string Value::ToString() const {
  switch (kind) {
    case Kind::kNull:
      return "NULL";
    case Kind::kInt64:
      return std::to_string(int_value);
    case Kind::kString:
      return string_value;
  }
  return "?";
}

Status Column::Append(const Value& value) {
  if (value.is_null()) {
    has_nulls_ = true;
    rows_.push_back(kNullValueId);
    return Status::OK();
  }
  if (!Accepts(value)) {
    return Status::InvalidArgument("type mismatch appending to column " +
                                   name_);
  }

  ValueId id;
  if (type_ == Type::kInt64) {
    auto [it, inserted] =
        int_ids_.try_emplace(value.int_value, static_cast<ValueId>(dict_size_));
    id = it->second;
    if (inserted) {
      dictionary_.push_back(value);
      ++dict_size_;
    }
  } else {
    auto [it, inserted] = string_ids_.try_emplace(
        value.string_value, static_cast<ValueId>(dict_size_));
    id = it->second;
    if (inserted) {
      dictionary_.push_back(value);
      ++dict_size_;
    }
  }
  rows_.push_back(id);
  return Status::OK();
}

Value Column::ValueAt(size_t row) const {
  const ValueId id = rows_[row];
  if (id == kNullValueId) {
    return Value::Null();
  }
  return dictionary_[id];
}

std::optional<ValueId> Column::Lookup(const Value& value) const {
  if (value.is_null()) {
    return std::nullopt;
  }
  if (type_ == Type::kInt64) {
    const auto it = int_ids_.find(value.int_value);
    if (it == int_ids_.end()) {
      return std::nullopt;
    }
    return it->second;
  }
  const auto it = string_ids_.find(value.string_value);
  if (it == string_ids_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::vector<ValueId> Column::IdsInRange(int64_t lo, int64_t hi) const {
  std::vector<ValueId> out;
  for (ValueId id = 0; id < dictionary_.size(); ++id) {
    const int64_t v = dictionary_[id].int_value;
    if (v >= lo && v <= hi) {
      out.push_back(id);
    }
  }
  return out;
}

}  // namespace ebi
