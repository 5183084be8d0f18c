#ifndef EBI_OBS_TRACE_H_
#define EBI_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "storage/io_accountant.h"

namespace ebi {
namespace obs {

/// A typed span attribute value. Spans carry the quantities the paper's
/// cost analysis talks about (δ, minterms, vectors read, bytes, cache
/// hits) as named attributes rather than free-form strings, so EXPLAIN
/// can render them and tests can assert on them.
class AttrValue {
 public:
  enum class Kind : uint8_t { kInt, kUint, kDouble, kBool, kString };

  AttrValue() = default;
  static AttrValue Int(int64_t v) {
    AttrValue a;
    a.kind_ = Kind::kInt;
    a.i_ = v;
    return a;
  }
  static AttrValue Uint(uint64_t v) {
    AttrValue a;
    a.kind_ = Kind::kUint;
    a.u_ = v;
    return a;
  }
  static AttrValue Double(double v) {
    AttrValue a;
    a.kind_ = Kind::kDouble;
    a.d_ = v;
    return a;
  }
  static AttrValue Bool(bool v) {
    AttrValue a;
    a.kind_ = Kind::kBool;
    a.b_ = v;
    return a;
  }
  static AttrValue Str(std::string v) {
    AttrValue a;
    a.kind_ = Kind::kString;
    a.s_ = std::move(v);
    return a;
  }

  Kind kind() const { return kind_; }
  int64_t int_value() const { return i_; }
  uint64_t uint_value() const { return u_; }
  double double_value() const { return d_; }
  bool bool_value() const { return b_; }
  const std::string& string_value() const { return s_; }

  /// The value as a uint64 whatever the numeric kind (0 for strings);
  /// convenience for tests and counters.
  uint64_t AsUint() const;

  /// Human-readable rendering (EXPLAIN text form).
  std::string ToString() const;
  /// JSON literal rendering (strings quoted and escaped).
  std::string ToJson() const;

 private:
  Kind kind_ = Kind::kInt;
  int64_t i_ = 0;
  uint64_t u_ = 0;
  double d_ = 0.0;
  bool b_ = false;
  std::string s_;
};

/// One timed, attributed node of a query trace. Spans nest: an
/// executor.select span holds one predicate span per conjunct, which holds
/// the plan.choose and index.eval spans, and so on down to store.get.
struct TraceSpan {
  std::string name;
  /// Wall-clock duration, filled when the span closes.
  double elapsed_ms = 0.0;
  std::vector<std::pair<std::string, AttrValue>> attrs;
  std::vector<TraceSpan> children;

  /// First attribute named `key` on this span (nullptr if absent).
  const AttrValue* FindAttr(std::string_view key) const;
  /// Numeric attribute as uint64, or `fallback` when absent.
  uint64_t AttrUint(std::string_view key, uint64_t fallback = 0) const;
};

/// A tree of spans for one query, rooted at an implicit "query" span.
/// Build one, install it with a TraceScope, run the query, then render it
/// with ExplainText()/ExplainJson() (obs/explain.h).
///
/// Not thread-safe and not shared across threads: the trace is installed
/// per-thread, and spans opened on other threads are not recorded.
class QueryTrace {
 public:
  QueryTrace() {
    root_.name = "query";
    stack_.push_back(&root_);
  }
  // Open-span bookkeeping stores pointers into the tree; moving the trace
  // while spans are open would dangle them.
  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;

  const TraceSpan& root() const { return root_; }
  TraceSpan& root() { return root_; }

  /// First span named `name`, depth-first from the root (nullptr if none).
  const TraceSpan* Find(std::string_view name) const;

  /// Opens a child under the innermost open span. Used by ScopedSpan.
  TraceSpan* OpenSpan(std::string_view name) {
    TraceSpan* top = stack_.back();
    top->children.emplace_back();
    TraceSpan* span = &top->children.back();
    span->name = name;
    stack_.push_back(span);
    return span;
  }

  /// Closes the innermost open span (never the root).
  void CloseSpan(double elapsed_ms) {
    if (stack_.size() > 1) {
      stack_.back()->elapsed_ms = elapsed_ms;
      stack_.pop_back();
    }
  }

 private:
  TraceSpan root_;
  /// Open spans, outermost first; stack_[0] is always &root_. Pointers
  /// stay valid because children are only appended to the innermost open
  /// span, which never reallocates an ancestor's children vector.
  std::vector<TraceSpan*> stack_;
};

/// The calling thread's active trace sink, or nullptr when none is
/// installed — the null-sink fast path every instrumentation site checks
/// first (one thread-local load and branch, no allocation, no timing).
QueryTrace* CurrentTrace();

/// RAII installer: makes `trace` the thread's active sink for the scope's
/// lifetime, restoring the previous sink (scopes nest) and stamping the
/// root span's elapsed time on exit. A nullptr trace is a no-op scope.
class TraceScope {
 public:
  explicit TraceScope(QueryTrace* trace);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  QueryTrace* trace_;
  QueryTrace* prev_;
  std::chrono::steady_clock::time_point start_;
};

/// RAII span: opens a child of the innermost open span of the thread's
/// active trace, closes it (with wall-clock elapsed) on destruction. When
/// no trace is installed every member is a no-op.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name) : trace_(CurrentTrace()) {
    if (trace_ != nullptr) {
      span_ = trace_->OpenSpan(name);
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) {
      trace_->CloseSpan(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start_)
                            .count());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// True when a trace is recording; use to skip attribute computation
  /// that is itself costly (string formatting etc.).
  bool active() const { return trace_ != nullptr; }

  /// Adds one typed attribute. Accepts bools, any integral or floating
  /// type, and string-ish values; no-op when inactive.
  template <typename T>
  void Attr(std::string_view key, T v) {
    if (trace_ == nullptr) {
      return;
    }
    if constexpr (std::is_same_v<T, bool>) {
      span_->attrs.emplace_back(key, AttrValue::Bool(v));
    } else if constexpr (std::is_floating_point_v<T>) {
      span_->attrs.emplace_back(key,
                                AttrValue::Double(static_cast<double>(v)));
    } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      span_->attrs.emplace_back(key,
                                AttrValue::Int(static_cast<int64_t>(v)));
    } else if constexpr (std::is_integral_v<T>) {
      span_->attrs.emplace_back(key,
                                AttrValue::Uint(static_cast<uint64_t>(v)));
    } else {
      span_->attrs.emplace_back(key, AttrValue::Str(std::string(v)));
    }
  }

  /// Adds the four IoStats counters as vectors/pages/bytes(/nodes when
  /// nonzero) attributes — the per-span I/O delta.
  void AttrIo(const IoStats& io) {
    if (trace_ == nullptr) {
      return;
    }
    Attr("vectors", io.vectors_read);
    Attr("pages", io.pages_read);
    Attr("bytes", io.bytes_read);
    if (io.nodes_read != 0) {
      Attr("nodes", io.nodes_read);
    }
  }

 private:
  QueryTrace* trace_;
  TraceSpan* span_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace ebi

#endif  // EBI_OBS_TRACE_H_
