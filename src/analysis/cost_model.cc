#include "analysis/cost_model.h"

#include <algorithm>
#include <cmath>

#include "boolean/cover.h"
#include "util/bit_util.h"

namespace ebi {

int CeWorst(size_t m) { return Log2Ceil(m); }

namespace {

int ReducedPrefixCost(size_t delta, size_t m, bool with_dontcares) {
  if (delta == 0) {
    return 0;
  }
  delta = std::min(delta, m);
  const int k = Log2Ceil(m);
  std::vector<uint64_t> onset(delta);
  for (size_t i = 0; i < delta; ++i) {
    onset[i] = i;
  }
  const uint64_t space = uint64_t{1} << k;
  std::vector<uint64_t> dontcare;
  if (with_dontcares) {
    dontcare.reserve(space - m);
    for (uint64_t c = m; c < space; ++c) {
      dontcare.push_back(c);
    }
  }
  const Cover cover = ReduceRetrievalFunction(onset, dontcare, k);
  return DistinctVariables(cover);
}

}  // namespace

int CeBest(size_t delta, size_t m) {
  return ReducedPrefixCost(delta, m, /*with_dontcares=*/false);
}

int CeBestWithDontCares(size_t delta, size_t m) {
  return ReducedPrefixCost(delta, m, /*with_dontcares=*/true);
}

double CrossoverDelta(size_t m) {
  return std::log2(static_cast<double>(m)) + 1.0;
}

double SimpleBitmapBytes(size_t n, size_t m) {
  return static_cast<double>(n) * static_cast<double>(m) / 8.0;
}

double EncodedBitmapBytes(size_t n, size_t m) {
  return static_cast<double>(n) * CeWorst(m) / 8.0;
}

double BTreeBytes(size_t n, size_t page_size, size_t degree) {
  return 1.44 * static_cast<double>(n) / static_cast<double>(degree) *
         static_cast<double>(page_size);
}

double BitmapVsBTreeCrossoverCardinality(size_t page_size, size_t degree) {
  return 11.52 * static_cast<double>(page_size) /
         static_cast<double>(degree);
}

size_t EncodedBitmapVectors(size_t m) {
  return static_cast<size_t>(Log2Ceil(m));
}

double SimpleBuildCost(size_t n, size_t m) {
  return static_cast<double>(n) * static_cast<double>(m);
}

double EncodedBuildCost(size_t n, size_t m) {
  return static_cast<double>(n) * CeWorst(m);
}

double BTreeBuildCost(size_t n, size_t m, size_t page_size, size_t degree) {
  const double half_degree = static_cast<double>(degree) / 2.0;
  const double traverse =
      std::log(std::max<double>(2.0, static_cast<double>(m))) /
      std::log(half_degree);
  const double leaf_insert =
      std::log2(static_cast<double>(page_size) / 4.0);
  return static_cast<double>(n) * (traverse + leaf_insert);
}

double BestToWorstAreaRatio(size_t m, size_t step) {
  const int worst = CeWorst(m);
  if (worst == 0 || m == 0) {
    return 1.0;
  }
  double best_area = 0.0;
  double worst_area = 0.0;
  size_t samples = 0;
  for (size_t delta = 1; delta <= m; delta += step) {
    best_area += CeBest(delta, m);
    worst_area += worst;
    ++samples;
  }
  (void)samples;
  return worst_area == 0.0 ? 1.0 : best_area / worst_area;
}

double PeakSaving(size_t m, size_t step) {
  const int worst = CeWorst(m);
  if (worst == 0) {
    return 0.0;
  }
  double peak = 0.0;
  for (size_t delta = 1; delta <= m; delta += step) {
    const double saving =
        1.0 - static_cast<double>(CeBest(delta, m)) / worst;
    peak = std::max(peak, saving);
  }
  // The peak falls on a power of two (a full subcube reduces to one
  // literal); make sure subsampling cannot miss it.
  for (size_t delta = 1; delta <= m; delta *= 2) {
    const double saving =
        1.0 - static_cast<double>(CeBest(delta, m)) / worst;
    peak = std::max(peak, saving);
  }
  return peak;
}

}  // namespace ebi
