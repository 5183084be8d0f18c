#include "obs/request_record.h"

#include <charconv>
#include <cstdio>
#include <functional>
#include <utility>

#include "obs/explain.h"
#include "obs/json.h"

namespace ebi {
namespace obs {
namespace {

/// uint64 fingerprints go into the log as hex strings: JSON numbers are
/// doubles on most readers, which silently mangles values above 2^53.
std::string HexU64(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

Result<uint64_t> ParseHexU64(const std::string& hex) {
  uint64_t value = 0;
  const char* end = hex.data() + hex.size();
  const auto [ptr, error] = std::from_chars(hex.data(), end, value, 16);
  if (hex.empty() || error != std::errc() || ptr != end) {
    return Status::InvalidArgument("bad fingerprint hex");
  }
  return value;
}

constexpr auto AsInt64 = &JsonValue::Int64;
constexpr auto AsUint64 = &JsonValue::Uint64;
std::optional<double> AsDouble(const JsonValue& v) {
  return v.kind == JsonValue::Kind::kNumber ? std::optional(v.number)
                                            : std::nullopt;
}
std::optional<std::string> AsString(const JsonValue& v) {
  return v.kind == JsonValue::Kind::kString ? std::optional(v.text)
                                            : std::nullopt;
}
std::optional<bool> AsBool(const JsonValue& v) {
  return v.kind == JsonValue::Kind::kBool ? std::optional(v.bool_value)
                                          : std::nullopt;
}

/// Reads member `key` of `object` through `get` into `out`. An absent
/// member leaves `out` at its default; a present one that `get` rejects
/// (wrong type, or an integer that is fractional or out of range) fails
/// the line.
template <typename T, typename Getter>
Status ReadField(const JsonValue& object, std::string_view key, Getter get,
                 T* out) {
  const JsonValue* v = object.Find(key);
  if (v == nullptr) {
    return Status::OK();
  }
  auto got = std::invoke(get, *v);
  if (!got.has_value()) {
    return Status::InvalidArgument("workload record field \"" +
                                   std::string(key) +
                                   "\" has the wrong type or range");
  }
  *out = std::move(*got);
  return Status::OK();
}

Result<WorkloadPredicate> ParsePredicate(const JsonValue& p) {
  if (p.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("workload predicate is not an object");
  }
  WorkloadPredicate pred;
  EBI_RETURN_IF_ERROR(ReadField(p, "col", AsString, &pred.column));
  EBI_RETURN_IF_ERROR(ReadField(p, "op", AsString, &pred.op));
  std::string fingerprint = "0";
  EBI_RETURN_IF_ERROR(ReadField(p, "fp", AsString, &fingerprint));
  EBI_ASSIGN_OR_RETURN(pred.fingerprint, ParseHexU64(fingerprint));
  EBI_RETURN_IF_ERROR(ReadField(p, "rows", AsUint64, &pred.rows));
  if (const JsonValue* lits = p.Find("lits"); lits != nullptr) {
    if (lits->kind != JsonValue::Kind::kArray) {
      return Status::InvalidArgument("workload predicate lits is not an array");
    }
    for (const JsonValue& lit : lits->array) {
      const std::optional<int64_t> value = lit.Int64();
      if (!value.has_value()) {
        return Status::InvalidArgument(
            "workload predicate literal is not a 64-bit integer");
      }
      pred.literals.push_back(*value);
    }
  }
  if (p.Find("lo") != nullptr && p.Find("hi") != nullptr) {
    pred.has_range = true;
    EBI_RETURN_IF_ERROR(ReadField(p, "lo", AsInt64, &pred.lo));
    EBI_RETURN_IF_ERROR(ReadField(p, "hi", AsInt64, &pred.hi));
  }
  return pred;
}

}  // namespace

std::string RequestRecordJson(const RequestRecord& record) {
  JsonWriter w;
  w.BeginObject();
  w.Key("v").Int(kRequestRecordVersion);
  w.Key("seq").Uint(record.seq);
  w.Key("ts").Number(record.ts_ms);
  w.Key("epoch").Uint(record.epoch);
  w.Key("rows").Uint(record.rows_selected);
  w.Key("total").Uint(record.rows_total);
  w.Key("sel").Number(record.Selectivity());
  w.Key("queue").Number(record.queue_ms);
  if (record.pin_ms.has_value()) {
    w.Key("pin").Number(*record.pin_ms);
  }
  if (record.plan_ms.has_value()) {
    w.Key("plan").Number(*record.plan_ms);
  }
  if (record.execute_ms.has_value()) {
    w.Key("exec").Number(*record.execute_ms);
  }
  w.Key("ms").Number(record.total_ms);
  w.Key("vec").Uint(record.vectors);
  w.Key("pages").Uint(record.pages);
  w.Key("bytes").Uint(record.bytes);
  w.Key("kernel").String(record.kernel);
  w.Key("preds").BeginArray();
  for (const WorkloadPredicate& pred : record.predicates) {
    w.BeginObject();
    w.Key("col").String(pred.column);
    w.Key("op").String(pred.op);
    w.Key("fp").String(HexU64(pred.fingerprint));
    w.Key("rows").Uint(pred.rows);
    if (!pred.literals.empty()) {
      w.Key("lits").BeginArray();
      for (const int64_t lit : pred.literals) {
        w.Int(lit);
      }
      w.EndArray();
    }
    if (pred.has_range) {
      w.Key("lo").Int(pred.lo);
      w.Key("hi").Int(pred.hi);
    }
    w.EndObject();
  }
  w.EndArray();
  if (record.status != StatusCode::kOk) {
    w.Key("status").String(StatusCodeName(record.status));
  }
  if (record.slow) {
    w.Key("slow").Bool(true);
  }
  if (!record.query.empty()) {
    w.Key("query").String(record.query);
  }
  if (record.root.has_value()) {
    w.Key("trace").Raw(SpanJson(*record.root));
  }
  w.EndObject();
  return w.str();
}

Result<RequestRecord> ParseRequestRecord(const std::string& line) {
  EBI_ASSIGN_OR_RETURN(const JsonValue root, ParseJson(line));
  if (root.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("workload record is not a JSON object");
  }
  int64_t version = 0;
  EBI_RETURN_IF_ERROR(ReadField(root, "v", AsInt64, &version));
  if (version != kRequestRecordVersion) {
    return Status::InvalidArgument("unknown workload log version " +
                                   std::to_string(version));
  }
  RequestRecord record;
  EBI_RETURN_IF_ERROR(ReadField(root, "seq", AsUint64, &record.seq));
  EBI_RETURN_IF_ERROR(ReadField(root, "ts", AsDouble, &record.ts_ms));
  EBI_RETURN_IF_ERROR(ReadField(root, "epoch", AsUint64, &record.epoch));
  EBI_RETURN_IF_ERROR(ReadField(root, "rows", AsUint64, &record.rows_selected));
  EBI_RETURN_IF_ERROR(ReadField(root, "total", AsUint64, &record.rows_total));
  EBI_RETURN_IF_ERROR(ReadField(root, "queue", AsDouble, &record.queue_ms));
  EBI_RETURN_IF_ERROR(ReadField(root, "pin", AsDouble, &record.pin_ms));
  EBI_RETURN_IF_ERROR(ReadField(root, "plan", AsDouble, &record.plan_ms));
  EBI_RETURN_IF_ERROR(ReadField(root, "exec", AsDouble, &record.execute_ms));
  EBI_RETURN_IF_ERROR(ReadField(root, "ms", AsDouble, &record.total_ms));
  EBI_RETURN_IF_ERROR(ReadField(root, "vec", AsUint64, &record.vectors));
  EBI_RETURN_IF_ERROR(ReadField(root, "pages", AsUint64, &record.pages));
  EBI_RETURN_IF_ERROR(ReadField(root, "bytes", AsUint64, &record.bytes));
  EBI_RETURN_IF_ERROR(ReadField(root, "kernel", AsString, &record.kernel));
  if (const JsonValue* preds = root.Find("preds"); preds != nullptr) {
    if (preds->kind != JsonValue::Kind::kArray) {
      return Status::InvalidArgument("workload record preds is not an array");
    }
    for (const JsonValue& p : preds->array) {
      EBI_ASSIGN_OR_RETURN(WorkloadPredicate pred, ParsePredicate(p));
      record.predicates.push_back(std::move(pred));
    }
  }
  EBI_RETURN_IF_ERROR(ReadField(root, "slow", AsBool, &record.slow));
  EBI_RETURN_IF_ERROR(ReadField(root, "query", AsString, &record.query));
  return record;
}

std::string SpanJson(const TraceSpan& span) {
  ExplainOptions options;
  options.include_timing = true;
  return ExplainSpanJson(span, options);
}

}  // namespace obs
}  // namespace ebi
