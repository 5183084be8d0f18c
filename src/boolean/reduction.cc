#include "boolean/reduction.h"

#include <algorithm>
#include <map>
#include <utility>

#include "boolean/quine_mccluskey.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ebi {

namespace {

/// One merging pass: combines every adjacent pair it can find (each cube
/// may participate in several merges; merged cubes replace their parents).
/// Returns true if anything merged.
bool MergePass(Cover* cover) {
  // Bucket by mask: only equal-mask cubes are adjacency-mergeable.
  std::map<uint64_t, std::vector<size_t>> by_mask;
  for (size_t i = 0; i < cover->size(); ++i) {
    by_mask[(*cover)[i].mask].push_back(i);
  }

  std::vector<bool> dead(cover->size(), false);
  Cover merged;
  for (const auto& [mask, indices] : by_mask) {
    for (size_t a = 0; a < indices.size(); ++a) {
      for (size_t b = a + 1; b < indices.size(); ++b) {
        const std::optional<Cube> m =
            TryCombine((*cover)[indices[a]], (*cover)[indices[b]]);
        if (m.has_value()) {
          dead[indices[a]] = true;
          dead[indices[b]] = true;
          merged.push_back(*m);
        }
      }
    }
  }
  if (merged.empty()) {
    return false;
  }

  Cover next;
  next.reserve(cover->size());
  for (size_t i = 0; i < cover->size(); ++i) {
    if (!dead[i]) {
      next.push_back((*cover)[i]);
    }
  }
  next.insert(next.end(), merged.begin(), merged.end());
  std::sort(next.begin(), next.end());
  next.erase(std::unique(next.begin(), next.end()), next.end());
  *cover = std::move(next);
  return true;
}

/// Removes cubes contained in another cube of the cover.
void AbsorptionPass(Cover* cover) {
  Cover kept;
  for (size_t i = 0; i < cover->size(); ++i) {
    bool absorbed = false;
    for (size_t j = 0; j < cover->size(); ++j) {
      if (i == j) {
        continue;
      }
      if ((*cover)[j].Contains((*cover)[i]) &&
          !((*cover)[i].Contains((*cover)[j]) && j > i)) {
        absorbed = true;
        break;
      }
    }
    if (!absorbed) {
      kept.push_back((*cover)[i]);
    }
  }
  *cover = std::move(kept);
}

}  // namespace

Cover ReduceCoverHeuristic(Cover cover) {
  std::sort(cover.begin(), cover.end());
  cover.erase(std::unique(cover.begin(), cover.end()), cover.end());
  bool changed = true;
  while (changed) {
    changed = MergePass(&cover);
    AbsorptionPass(&cover);
  }
  return cover;
}

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
  Cover raw;
  raw.reserve(onset.size());
  for (uint64_t code : onset) {
    raw.push_back(Cube::MinTerm(code, k));
  }
  if (!options.enable_reduction || onset.empty()) {
    return FinishReduction(&span, "off", onset.size(), 0, k,
                           std::move(raw));
  }

  const std::vector<uint64_t>* dc = &dontcare;
  std::vector<uint64_t> empty_dc;
  if (dontcare.size() > options.max_dontcare_terms) {
    dc = &empty_dc;
  }

  if (onset.size() + dc->size() <= options.exact_max_terms) {
    MinimizeOptions mo;
    mo.prefer_fewer_variables = options.prefer_fewer_variables;
    size_t primes = 0;
    Cover cover = MinimizeQm(onset, *dc, k, mo, &primes);
    if (span.active()) {
      span.Attr("primes", primes);
    }
    return FinishReduction(&span, "exact", onset.size(), dc->size(), k,
                           std::move(cover));
  }

  // Heuristic path: include don't-cares as mergeable min-terms, then strip
  // cubes that cover no required minterm.
  Cover seeded = raw;
  for (uint64_t code : *dc) {
    seeded.push_back(Cube::MinTerm(code, k));
  }
  Cover reduced = ReduceCoverHeuristic(std::move(seeded));
  Cover result;
  for (const Cube& cube : reduced) {
    bool useful = false;
    for (uint64_t code : onset) {
      if (cube.Covers(code)) {
        useful = true;
        break;
      }
    }
    if (useful) {
      result.push_back(cube);
    }
  }
  return FinishReduction(&span, "heuristic", onset.size(), dc->size(), k,
                         std::move(result));
}

}  // namespace ebi
