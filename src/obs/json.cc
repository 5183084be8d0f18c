#include "obs/json.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>

namespace ebi {
namespace obs {
namespace {

/// Recursive-descent parser behind ParseJson, building the JsonValue DOM.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    EBI_RETURN_IF_ERROR(ParseValue(&value));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("trailing characters after JSON value");
    }
    return value;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  Status ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("unexpected end of JSON");
    }
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->text);
      case 't':
        return ParseLiteral("true", out, JsonValue::Kind::kBool, true);
      case 'f':
        return ParseLiteral("false", out, JsonValue::Kind::kBool, false);
      case 'n':
        return ParseLiteral("null", out, JsonValue::Kind::kNull, false);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseLiteral(std::string_view word, JsonValue* out,
                      JsonValue::Kind kind, bool value) {
    if (text_.substr(pos_, word.size()) != word) {
      return Status::InvalidArgument("bad JSON literal");
    }
    pos_ += word.size();
    out->kind = kind;
    out->bool_value = value;
    return Status::OK();
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Status::InvalidArgument("bad JSON number");
    }
    out->text = std::string(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(out->text.c_str(), &end);
    if (end == out->text.c_str() || *end != '\0' || errno == ERANGE) {
      return Status::InvalidArgument("bad JSON number");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = value;
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    // Caller saw the opening quote.
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return Status::OK();
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          const std::string_view hex = text_.substr(pos_, 4);
          unsigned code = 0;
          if (hex.size() != 4 ||
              std::from_chars(hex.data(), hex.data() + 4, code, 16).ptr !=
                  hex.data() + 4) {
            return Status::InvalidArgument("bad \\u escape");
          }
          pos_ += 4;
          // JsonEscape only emits \u00XX control escapes; decode the BMP
          // code point as UTF-8 and accept anything else verbatim.
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xc0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            *out += static_cast<char>(0xe0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            *out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default:
          return Status::InvalidArgument("bad JSON escape");
      }
    }
    return Status::InvalidArgument("unterminated JSON string");
  }

  Status ParseArray(JsonValue* out) {
    ++pos_;  // '['
    out->kind = JsonValue::Kind::kArray;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      JsonValue element;
      EBI_RETURN_IF_ERROR(ParseValue(&element));
      out->array.push_back(std::move(element));
      SkipSpace();
      if (pos_ >= text_.size()) {
        return Status::InvalidArgument("unterminated JSON array");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return Status::OK();
      }
      return Status::InvalidArgument("bad JSON array");
    }
  }

  Status ParseObject(JsonValue* out) {
    ++pos_;  // '{'
    out->kind = JsonValue::Kind::kObject;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Status::InvalidArgument("bad JSON object key");
      }
      std::string key;
      EBI_RETURN_IF_ERROR(ParseString(&key));
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Status::InvalidArgument("missing ':' in JSON object");
      }
      ++pos_;
      JsonValue value;
      EBI_RETURN_IF_ERROR(ParseValue(&value));
      out->object.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) {
        return Status::InvalidArgument("unterminated JSON object");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return Status::OK();
      }
      return Status::InvalidArgument("bad JSON object");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

/// `token` as an exact T: nullopt unless all of it is an integer (no
/// fraction, exponent or '+'; no '-' for unsigned T) within T's range.
template <typename T>
std::optional<T> ExactInteger(const std::string& token) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, error] = std::from_chars(token.data(), end, value);
  if (error != std::errc() || ptr != end) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

std::optional<int64_t> JsonValue::Int64() const {
  return kind == Kind::kNumber ? ExactInteger<int64_t>(text) : std::nullopt;
}

std::optional<uint64_t> JsonValue::Uint64() const {
  return kind == Kind::kNumber ? ExactInteger<uint64_t>(text) : std::nullopt;
}

Result<JsonValue> ParseJson(std::string_view text) {
  return JsonParser(text).Parse();
}

}  // namespace obs
}  // namespace ebi
