#include "query/predicate.h"

#include <algorithm>

namespace ebi {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t FnvBytes(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * kFnvPrime;
  }
  return h;
}

uint64_t FnvString(uint64_t h, const std::string& s) {
  return FnvBytes(h, s.data(), s.size());
}

uint64_t FnvU64(uint64_t h, uint64_t v) {
  return FnvBytes(h, &v, sizeof(v));
}

uint64_t HashValue(const Value& v) {
  uint64_t h = kFnvOffset;
  h = FnvU64(h, static_cast<uint64_t>(v.kind));
  switch (v.kind) {
    case Value::Kind::kNull:
      break;
    case Value::Kind::kInt64:
      h = FnvU64(h, static_cast<uint64_t>(v.int_value));
      break;
    case Value::Kind::kString:
      h = FnvString(h, v.string_value);
      break;
  }
  return h;
}

}  // namespace

Predicate Predicate::Eq(std::string column, Value v) {
  Predicate p;
  p.column = std::move(column);
  p.kind = Kind::kEquals;
  p.value = std::move(v);
  return p;
}

Predicate Predicate::In(std::string column, std::vector<Value> vs) {
  Predicate p;
  p.column = std::move(column);
  p.kind = Kind::kIn;
  p.values = std::move(vs);
  return p;
}

Predicate Predicate::Between(std::string column, int64_t lo, int64_t hi) {
  Predicate p;
  p.column = std::move(column);
  p.kind = Kind::kRange;
  p.lo = lo;
  p.hi = hi;
  return p;
}

Predicate Predicate::IsNull(std::string column) {
  Predicate p;
  p.column = std::move(column);
  p.kind = Kind::kIsNull;
  return p;
}

Predicate Predicate::NotEq(std::string column, Value v) {
  Predicate p = Eq(std::move(column), std::move(v));
  p.kind = Kind::kNotEquals;
  return p;
}

Predicate Predicate::NotIn(std::string column, std::vector<Value> vs) {
  Predicate p = In(std::move(column), std::move(vs));
  p.kind = Kind::kNotIn;
  return p;
}

Predicate Predicate::Positive() const {
  Predicate p = *this;
  if (kind == Kind::kNotEquals) {
    p.kind = Kind::kEquals;
  } else if (kind == Kind::kNotIn) {
    p.kind = Kind::kIn;
  }
  return p;
}

size_t Predicate::Width(const Column& col) const {
  switch (kind) {
    case Kind::kEquals:
    case Kind::kIsNull:
    case Kind::kNotEquals:
      return 1;
    case Kind::kIn:
    case Kind::kNotIn:
      return values.size();
    case Kind::kRange:
      if (col.type() != Column::Type::kInt64) {
        return 0;
      }
      return static_cast<size_t>(std::count_if(
          col.dictionary().begin(), col.dictionary().end(),
          [this](const Value& v) {
            return v.int_value >= lo && v.int_value <= hi;
          }));
  }
  return 0;
}

const char* Predicate::OpTag() const {
  switch (kind) {
    case Kind::kEquals:
      return "eq";
    case Kind::kIn:
      return "in";
    case Kind::kRange:
      return "range";
    case Kind::kIsNull:
      return "isnull";
    case Kind::kNotEquals:
      return "neq";
    case Kind::kNotIn:
      return "notin";
  }
  return "?";
}

uint64_t Predicate::Fingerprint() const {
  uint64_t h = kFnvOffset;
  h = FnvString(h, column);
  h = FnvString(h, OpTag());
  switch (kind) {
    case Kind::kEquals:
    case Kind::kNotEquals:
      h = FnvU64(h, HashValue(value));
      break;
    case Kind::kIn:
    case Kind::kNotIn: {
      // Sort the member hashes so {1,2} and {2,1} fingerprint the same.
      std::vector<uint64_t> hashes;
      hashes.reserve(values.size());
      for (const Value& v : values) {
        hashes.push_back(HashValue(v));
      }
      std::sort(hashes.begin(), hashes.end());
      hashes.erase(std::unique(hashes.begin(), hashes.end()), hashes.end());
      for (const uint64_t hv : hashes) {
        h = FnvU64(h, hv);
      }
      break;
    }
    case Kind::kRange:
      h = FnvU64(h, static_cast<uint64_t>(lo));
      h = FnvU64(h, static_cast<uint64_t>(hi));
      break;
    case Kind::kIsNull:
      break;
  }
  return h;
}

std::string Predicate::ToString() const {
  switch (kind) {
    case Kind::kEquals:
      return column + " = " + value.ToString();
    case Kind::kIn: {
      std::string out = column + " IN {";
      for (size_t i = 0; i < values.size(); ++i) {
        if (i > 0) {
          out += ", ";
        }
        out += values[i].ToString();
      }
      return out + "}";
    }
    case Kind::kRange:
      return std::to_string(lo) + " <= " + column +
             " <= " + std::to_string(hi);
    case Kind::kIsNull:
      return column + " IS NULL";
    case Kind::kNotEquals:
      return column + " != " + value.ToString();
    case Kind::kNotIn: {
      std::string out = column + " NOT IN {";
      for (size_t i = 0; i < values.size(); ++i) {
        if (i > 0) {
          out += ", ";
        }
        out += values[i].ToString();
      }
      return out + "}";
    }
  }
  return "?";
}

}  // namespace ebi
