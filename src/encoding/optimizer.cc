#include "encoding/optimizer.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "encoding/well_defined.h"
#include "util/random.h"

namespace ebi {

namespace {

/// Annealing temperature at step 0; it falls linearly to 0 over the step
/// budget.
constexpr double kInitialTemperature = 1.5;

/// Orders ValueIds so values sharing predicates sit next to each other:
/// predicates are visited largest-first and append their unseen members;
/// untouched values follow in id order.
std::vector<ValueId> AffinityOrder(size_t m, const PredicateSet& predicates) {
  std::vector<size_t> pred_order(predicates.size());
  for (size_t i = 0; i < predicates.size(); ++i) {
    pred_order[i] = i;
  }
  std::stable_sort(pred_order.begin(), pred_order.end(),
                   [&predicates](size_t a, size_t b) {
                     return predicates[a].size() > predicates[b].size();
                   });

  std::vector<ValueId> order;
  order.reserve(m);
  std::vector<bool> seen(m, false);
  for (size_t pi : pred_order) {
    for (ValueId v : predicates[pi]) {
      if (v < m && !seen[v]) {
        seen[v] = true;
        order.push_back(v);
      }
    }
  }
  for (ValueId v = 0; v < m; ++v) {
    if (!seen[v]) {
      order.push_back(v);
    }
  }
  return order;
}

/// C(n, r) with saturation.
uint64_t BinomialSaturated(uint64_t n, uint64_t r, uint64_t cap) {
  if (r > n) {
    return 0;
  }
  r = std::min(r, n - r);
  uint64_t result = 1;
  for (uint64_t i = 1; i <= r; ++i) {
    if (result > cap) {
      return cap + 1;
    }
    result = result * (n - r + i) / i;
  }
  return result;
}

}  // namespace

Result<MappingTable> GreedyEncode(size_t m, const PredicateSet& predicates,
                                  const EncoderOptions& encoder_options) {
  if (m == 0) {
    return Status::InvalidArgument("empty domain");
  }
  EBI_ASSIGN_OR_RETURN(MappingTable gray,
                       MakeGrayMapping(m, encoder_options));
  const std::vector<ValueId> order = AffinityOrder(m, predicates);

  // Gray position i (as handed out by MakeGrayMapping, which skips reserved
  // codewords) goes to the i-th value in affinity order.
  std::vector<uint64_t> codes(m);
  for (size_t i = 0; i < m; ++i) {
    EBI_ASSIGN_OR_RETURN(const uint64_t code,
                         gray.CodeOf(static_cast<ValueId>(i)));
    codes[order[i]] = code;
  }
  return MappingTable::Create(gray.width(), codes, gray.void_code(),
                              gray.null_code());
}

Result<MappingTable> AnnealEncode(size_t m, const PredicateSet& predicates,
                                  const OptimizerOptions& options,
                                  const EncoderOptions& encoder_options) {
  EBI_ASSIGN_OR_RETURN(MappingTable best,
                       GreedyEncode(m, predicates, encoder_options));
  EBI_ASSIGN_OR_RETURN(
      int best_cost, TotalAccessCost(best, predicates, options.reduction));

  // Sequential codes are a strong start when predicates select consecutive
  // values; begin from whichever start is cheaper.
  EBI_ASSIGN_OR_RETURN(MappingTable sequential,
                       MakeSequentialMapping(m, encoder_options));
  EBI_ASSIGN_OR_RETURN(
      const int sequential_cost,
      TotalAccessCost(sequential, predicates, options.reduction));
  if (sequential_cost < best_cost) {
    best = std::move(sequential);
    best_cost = sequential_cost;
  }

  std::vector<uint64_t> current = best.codes();
  int current_cost = best_cost;
  const int width = best.width();
  const auto void_code = best.void_code();

  // Free codewords the annealer may swap into.
  std::vector<uint64_t> free_codes = best.UnusedCodes(1024);

  Rng rng(options.seed);
  for (int step = 0; step < options.iterations && best_cost > 0; ++step) {
    const double temperature =
        kInitialTemperature *
        (1.0 - static_cast<double>(step) / options.iterations);

    std::vector<uint64_t> proposal = current;
    const size_t a = static_cast<size_t>(rng.UniformInt(m));
    const bool use_free = !free_codes.empty() && rng.Bernoulli(0.3);
    size_t free_slot = 0;
    if (use_free) {
      free_slot = static_cast<size_t>(rng.UniformInt(free_codes.size()));
      proposal[a] = free_codes[free_slot];
    } else {
      size_t b = static_cast<size_t>(rng.UniformInt(m));
      if (a == b) {
        continue;
      }
      std::swap(proposal[a], proposal[b]);
    }

    EBI_ASSIGN_OR_RETURN(
        MappingTable candidate,
        MappingTable::Create(width, proposal, void_code, best.null_code()));
    const Result<int> cost_or =
        TotalAccessCost(candidate, predicates, options.reduction);
    if (!cost_or.ok()) {
      return cost_or.status();
    }
    const int cost = *cost_or;

    const int delta = cost - current_cost;
    const bool accept =
        delta <= 0 ||
        (temperature > 0 &&
         rng.UniformDouble() < std::exp(-delta / temperature));
    if (accept) {
      if (use_free) {
        // The old code of value `a` becomes free.
        std::swap(free_codes[free_slot], current[a]);
        current[a] = proposal[a];
      } else {
        current = std::move(proposal);
      }
      current_cost = cost;
      if (cost < best_cost) {
        best_cost = cost;
        best = std::move(candidate);
      }
    }
  }
  return best;
}

Result<MappingTable> TotalOrderOptimizedEncode(
    size_t m, const PredicateSet& predicates,
    const EncoderOptions& encoder_options, uint64_t max_combinations) {
  EBI_ASSIGN_OR_RETURN(MappingTable best,
                       MakeTotalOrderMapping(m, encoder_options));
  if (m == 0 || predicates.empty()) {
    return best;
  }
  EBI_ASSIGN_OR_RETURN(int best_cost, TotalAccessCost(best, predicates));

  // Candidate pool: every non-reserved codeword, ascending. An increasing
  // assignment is an m-subset of the pool taken in order.
  const int width = best.width();
  std::vector<uint64_t> pool;
  const uint64_t space = uint64_t{1} << width;
  for (uint64_t code = 0; code < space; ++code) {
    const bool reserved =
        (best.void_code().has_value() && code == *best.void_code()) ||
        (best.null_code().has_value() && code == *best.null_code());
    if (!reserved) {
      pool.push_back(code);
    }
  }
  if (BinomialSaturated(pool.size(), m, max_combinations) >
      max_combinations) {
    return best;  // Too many assignments; the sequential one stands.
  }

  // Enumerate m-subsets of the pool (indices ascending => codes
  // ascending => order preserved).
  std::vector<size_t> idx(m);
  for (size_t i = 0; i < m; ++i) {
    idx[i] = i;
  }
  for (;;) {
    std::vector<uint64_t> codes(m);
    for (size_t i = 0; i < m; ++i) {
      codes[i] = pool[idx[i]];
    }
    Result<MappingTable> candidate = MappingTable::Create(
        width, codes, best.void_code(), best.null_code());
    if (candidate.ok()) {
      EBI_ASSIGN_OR_RETURN(const int cost,
                           TotalAccessCost(*candidate, predicates));
      if (cost < best_cost) {
        best_cost = cost;
        best = std::move(candidate).value();
      }
    }
    // Next combination.
    size_t i = m;
    while (i > 0 && idx[i - 1] == pool.size() - m + (i - 1)) {
      --i;
    }
    if (i == 0) {
      break;
    }
    ++idx[i - 1];
    for (size_t j = i; j < m; ++j) {
      idx[j] = idx[j - 1] + 1;
    }
  }
  return best;
}

}  // namespace ebi
