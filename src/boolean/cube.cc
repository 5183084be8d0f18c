#include "boolean/cube.h"

#include <bit>

namespace ebi {

int Cube::NumLiterals() const { return std::popcount(mask); }

std::string Cube::ToString(int k) const {
  if (mask == 0) {
    return "1";
  }
  std::string out;
  for (int i = k - 1; i >= 0; --i) {
    const uint64_t bit = uint64_t{1} << i;
    if ((mask & bit) == 0) {
      continue;
    }
    out += "B";
    out += std::to_string(i);
    if ((values & bit) == 0) {
      out += "'";
    }
  }
  return out;
}

}  // namespace ebi
