#ifndef EBI_OBS_JSON_H_
#define EBI_OBS_JSON_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace ebi {
namespace obs {

/// Escapes `s` for inclusion inside a JSON string literal (no quotes
/// added). Control characters become \u00XX.
inline std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Renders a double as a JSON number. JSON has no Inf/NaN, so non-finite
/// values degrade to 0; integral values print without a fraction.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

/// Minimal streaming JSON writer: the caller drives structure with
/// Begin/End calls, the writer inserts commas. No pretty-printing —
/// consumers are scripts, not humans (EXPLAIN text is the human form).
class JsonWriter {
 public:
  JsonWriter& BeginObject() {
    Prefix();
    out_ += '{';
    first_.push_back(true);
    return *this;
  }
  JsonWriter& EndObject() {
    first_.pop_back();
    out_ += '}';
    return *this;
  }
  JsonWriter& BeginArray() {
    Prefix();
    out_ += '[';
    first_.push_back(true);
    return *this;
  }
  JsonWriter& EndArray() {
    first_.pop_back();
    out_ += ']';
    return *this;
  }
  JsonWriter& Key(std::string_view k) {
    Prefix();
    out_ += '"';
    out_ += JsonEscape(k);
    out_ += "\":";
    after_key_ = true;
    return *this;
  }
  JsonWriter& String(std::string_view v) {
    Prefix();
    out_ += '"';
    out_ += JsonEscape(v);
    out_ += '"';
    return *this;
  }
  JsonWriter& Number(double v) {
    Prefix();
    out_ += JsonNumber(v);
    return *this;
  }
  JsonWriter& Uint(uint64_t v) {
    Prefix();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Int(int64_t v) {
    Prefix();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Bool(bool v) {
    Prefix();
    out_ += v ? "true" : "false";
    return *this;
  }
  /// Splices pre-rendered JSON (e.g. a nested document) as one value.
  JsonWriter& Raw(std::string_view json) {
    Prefix();
    out_ += json;
    return *this;
  }

  const std::string& str() const { return out_; }

 private:
  /// Emits the separating comma for the second and later values of the
  /// enclosing object/array; keys suppress the comma of their value.
  void Prefix() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) {
        out_ += ',';
      }
      first_.back() = false;
    }
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

/// A parsed JSON document: the small DOM ParseJson builds. Objects keep
/// their keys in document order.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool bool_value = false;
  /// The number as a double (kNumber).
  double number = 0.0;
  /// The decoded string (kString), or the number's source token
  /// (kNumber), which Int64/Uint64 re-read exactly.
  std::string text;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// The member named `key`, or nullptr (also when this is no object).
  const JsonValue* Find(std::string_view key) const;
  /// The number as an exact integer: nullopt unless this is a number
  /// written without fraction or exponent that fits the type. Doubles
  /// hold integers exactly only up to 2^53, so integer fields never go
  /// through `number`.
  std::optional<int64_t> Int64() const;
  std::optional<uint64_t> Uint64() const;
};

/// Parses one JSON document (objects, arrays, strings with escapes,
/// numbers, bools, null). Any syntax error or trailing text fails the
/// whole document.
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace obs
}  // namespace ebi

#endif  // EBI_OBS_JSON_H_
