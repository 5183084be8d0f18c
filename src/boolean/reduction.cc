#include "boolean/reduction.h"

#include <utility>

#include "boolean/quine_mccluskey.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ebi {

namespace {

/// Feeds the reduction counters and, when a trace is recording, the
/// boolean.reduce span attributes (minterms in/out, method, the distinct
/// vectors the reduced expression references — the paper's c_e).
Cover FinishReduction(obs::ScopedSpan* span, const char* method,
                      size_t terms_in, size_t dontcare_terms, int k,
                      Cover result) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter* reductions =
      registry.GetCounter(obs::kMetricReductionCount);
  static obs::Counter* in = registry.GetCounter(obs::kMetricReductionTermsIn);
  static obs::Counter* out =
      registry.GetCounter(obs::kMetricReductionTermsOut);
  reductions->Increment();
  in->Increment(terms_in);
  out->Increment(result.size());
  if (span->active()) {
    span->Attr("method", method);
    span->Attr("k", k);
    span->Attr("terms_in", terms_in);
    span->Attr("dontcares", dontcare_terms);
    span->Attr("terms_out", result.size());
    span->Attr("vectors", DistinctVariables(result));
  }
  return result;
}

}  // namespace

Cover ReduceRetrievalFunction(const std::vector<uint64_t>& onset,
                              const std::vector<uint64_t>& dontcare, int k,
                              const ReductionOptions& options) {
  obs::ScopedSpan span("boolean.reduce");
  if (!options.enable_reduction || onset.empty()) {
    Cover raw;
    raw.reserve(onset.size());
    for (uint64_t code : onset) {
      raw.push_back(Cube::MinTerm(code, k));
    }
    return FinishReduction(&span, "off", onset.size(), 0, k,
                           std::move(raw));
  }
  size_t primes = 0;
  Cover cover = MinimizeQm(onset, dontcare, k, &primes);
  if (span.active()) {
    span.Attr("primes", primes);
  }
  return FinishReduction(&span, "exact", onset.size(), dontcare.size(), k,
                         std::move(cover));
}

}  // namespace ebi
