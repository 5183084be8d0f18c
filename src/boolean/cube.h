#ifndef EBI_BOOLEAN_CUBE_H_
#define EBI_BOOLEAN_CUBE_H_

#include <cstdint>
#include <string>

namespace ebi {

/// An implicant (product term) over up to 64 Boolean variables.
///
/// Variable i corresponds to bitmap vector B_i of an encoded bitmap index.
/// `mask` bit i set means variable i appears in the product; `values` bit i
/// then gives its polarity (1 = positive literal B_i, 0 = negated literal
/// B_i'). Bits of `values` outside `mask` must be zero.
///
/// A full min-term (retrieval Boolean function of Definition 2.1) is a Cube
/// whose mask covers all k variables; logical reduction shrinks masks.
struct Cube {
  uint64_t values = 0;
  uint64_t mask = 0;

  Cube() = default;
  Cube(uint64_t values_in, uint64_t mask_in)
      : values(values_in & mask_in), mask(mask_in) {}

  /// The min-term for codeword `code` over `k` variables.
  static Cube MinTerm(uint64_t code, int k) {
    const uint64_t full = k >= 64 ? ~uint64_t{0} : (uint64_t{1} << k) - 1;
    return Cube(code, full);
  }

  /// Number of literals in the product.
  int NumLiterals() const;

  /// True iff the cube evaluates to 1 on the given full assignment.
  bool Covers(uint64_t minterm) const {
    return (minterm & mask) == values;
  }

  /// True iff this cube covers every assignment the other cube covers
  /// (i.e. `other` is absorbed by `*this`).
  bool Contains(const Cube& other) const {
    return (other.mask & mask) == mask && (other.values & mask) == values;
  }

  /// Renders like "B2'B1B0" with the highest variable first; an empty mask
  /// renders as "1" (the constant-true cube).
  std::string ToString(int k) const;

  friend bool operator==(const Cube& a, const Cube& b) {
    return a.values == b.values && a.mask == b.mask;
  }
  friend bool operator<(const Cube& a, const Cube& b) {
    return a.mask != b.mask ? a.mask < b.mask : a.values < b.values;
  }
};

}  // namespace ebi

#endif  // EBI_BOOLEAN_CUBE_H_
