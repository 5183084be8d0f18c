#include "boolean/cover.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "util/kernels/kernels.h"

namespace ebi {

namespace {

// The in-memory word source: pointers straight into the slices.
class SliceWords final : public CoverWordSource {
 public:
  explicit SliceWords(const std::vector<BitVector>& slices)
      : slices_(slices) {}

  Status Block(uint64_t vars, size_t first, size_t /*count*/,
               const uint64_t** words) override {
    for (; vars != 0; vars &= vars - 1) {
      const size_t v = static_cast<size_t>(std::countr_zero(vars));
      words[v] = slices_[v].words().data() + first;
    }
    return Status::OK();
  }

 private:
  const std::vector<BitVector>& slices_;
};

// EvaluateCover's precondition: every slice the cover references exists
// and has exactly `n` bits. Unreferenced slices may have any size.
[[maybe_unused]] bool ReferencedSlicesMatch(
    const Cover& cover, const std::vector<BitVector>& slices, size_t n) {
  for (uint64_t vars = VariablesOf(cover); vars != 0; vars &= vars - 1) {
    const size_t i = static_cast<size_t>(std::countr_zero(vars));
    if (i >= slices.size() || slices[i].size() != n) {
      return false;
    }
  }
  return true;
}

}  // namespace

uint64_t VariablesOf(const Cover& cover) {
  uint64_t vars = 0;
  for (const Cube& cube : cover) {
    vars |= cube.mask;
  }
  return vars;
}

int DistinctVariables(const Cover& cover) {
  return std::popcount(VariablesOf(cover));
}

int TotalLiterals(const Cover& cover) {
  int total = 0;
  for (const Cube& cube : cover) {
    total += cube.NumLiterals();
  }
  return total;
}

bool CoverCovers(const Cover& cover, uint64_t minterm) {
  for (const Cube& cube : cover) {
    if (cube.Covers(minterm)) {
      return true;
    }
  }
  return false;
}

std::string CoverToString(const Cover& cover, int k) {
  if (cover.empty()) {
    return "0";
  }
  std::string out;
  for (size_t i = 0; i < cover.size(); ++i) {
    if (i > 0) {
      out += " + ";
    }
    out += cover[i].ToString(k);
  }
  return out;
}

BitVector EvaluateCover(const Cover& cover,
                        const std::vector<BitVector>& slices, size_t n) {
  return EvaluateCoverWith(kernels::Active(), cover, slices, n);
}

BitVector EvaluateCoverWith(const kernels::BitmapKernels& k,
                            const Cover& cover,
                            const std::vector<BitVector>& slices, size_t n) {
  assert(ReferencedSlicesMatch(cover, slices, n) &&
         "EvaluateCover referenced slice size mismatch");
  SliceWords source(slices);
  // The in-memory source cannot fail.
  return EvaluateCoverFrom(k, cover, n, source).value();
}

Result<BitVector> EvaluateCoverFrom(const kernels::BitmapKernels& k,
                                    const Cover& cover, size_t n,
                                    CoverWordSource& source) {
  BitVector result(n, false);
  for (const Cube& cube : cover) {
    if (cube.mask == 0) {
      // Constant-true cube: the whole expression is a tautology.
      result.SetAll();
      return result;
    }
  }
  // One pass over the words in L1-resident blocks. Per block, each cube's
  // AND chain is built in `term` and ORed into `acc`; a slice's block is
  // read from memory once and re-read from cache by every later literal
  // that uses it, so the pass moves c_e slices, not one per literal.
  const uint64_t vars = VariablesOf(cover);
  const uint64_t* block[64] = {};
  alignas(64) uint64_t acc[kCoverBlockWords];
  alignas(64) uint64_t term[kCoverBlockWords];
  const size_t words = result.NumWords();
  for (size_t first = 0; first < words; first += kCoverBlockWords) {
    const size_t count = std::min(kCoverBlockWords, words - first);
    EBI_RETURN_IF_ERROR(source.Block(vars, first, count, block));
    k.fill_words(acc, 0, count);
    for (const Cube& cube : cover) {
      // Lead with a positive literal when the cube has one, so the chain
      // needs no complement pass.
      const uint64_t positives = cube.values & cube.mask;
      const size_t lead = static_cast<size_t>(
          std::countr_zero(positives != 0 ? positives : cube.mask));
      uint64_t literals = cube.mask & ~(uint64_t{1} << lead);
      const bool lead_positive = ((cube.values >> lead) & 1) != 0;
      if (literals == 0 && lead_positive) {
        k.or_words(acc, block[lead], count);
        continue;
      }
      k.copy_words(term, block[lead], count);
      if (!lead_positive) {
        k.not_words(term, count);
      }
      for (; literals != 0; literals &= literals - 1) {
        const size_t i = static_cast<size_t>(std::countr_zero(literals));
        if (((cube.values >> i) & 1) != 0) {
          k.and_words(term, block[i], count);
        } else {
          k.andnot_words(term, block[i], count);
        }
      }
      k.or_words(acc, term, count);
    }
    // A negated lead literal sets padding bits in the last word;
    // SetWordRange masks them off.
    result.SetWordRange(first, acc, count);
  }
  return result;
}

bool CoversEquivalent(const Cover& a, const Cover& b, int k) {
  const uint64_t limit = uint64_t{1} << k;
  for (uint64_t m = 0; m < limit; ++m) {
    if (CoverCovers(a, m) != CoverCovers(b, m)) {
      return false;
    }
  }
  return true;
}

}  // namespace ebi
