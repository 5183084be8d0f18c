#include "encoding/mapping_table.h"

#include <algorithm>
#include <iterator>

#include "util/bit_util.h"

namespace ebi {

namespace {

bool FitsWidth(uint64_t code, int width) {
  return width >= 64 || code < (uint64_t{1} << width);
}

/// Largest codeword of a `width`-bit code space.
uint64_t MaxCode(int width) {
  return width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
}

}  // namespace

Result<MappingTable> MappingTable::Create(
    int width, const std::vector<uint64_t>& codes,
    std::optional<uint64_t> void_code, std::optional<uint64_t> null_code) {
  MappingTable table;
  table.width_ = width;
  table.void_code_ = void_code;
  table.null_code_ = null_code;

  size_t reserved = 0;
  if (void_code.has_value()) {
    if (!FitsWidth(*void_code, width)) {
      return Status::InvalidArgument("void code exceeds width");
    }
    ++reserved;
  }
  if (null_code.has_value()) {
    if (!FitsWidth(*null_code, width)) {
      return Status::InvalidArgument("null code exceeds width");
    }
    if (void_code.has_value() && *void_code == *null_code) {
      return Status::InvalidArgument("void and NULL codes collide");
    }
    ++reserved;
  }

  const size_t total = codes.size() + reserved;
  if (total > 0 && Log2Ceil(total) > width) {
    return Status::InvalidArgument(
        "width " + std::to_string(width) + " too small for " +
        std::to_string(total) + " codewords");
  }

  table.code_of_value_.reserve(codes.size());
  for (size_t id = 0; id < codes.size(); ++id) {
    const uint64_t code = codes[id];
    if (!FitsWidth(code, width)) {
      return Status::InvalidArgument("codeword exceeds width");
    }
    if ((void_code.has_value() && code == *void_code) ||
        (null_code.has_value() && code == *null_code)) {
      return Status::InvalidArgument("codeword collides with reserved code");
    }
    const auto [it, inserted] =
        table.value_of_code_.emplace(code, static_cast<ValueId>(id));
    if (!inserted) {
      return Status::InvalidArgument("duplicate codeword " +
                                     std::to_string(code));
    }
    table.code_of_value_.push_back(code);
  }

  std::vector<uint64_t> used = table.code_of_value_;
  for (const std::optional<uint64_t>& reserved_code : {void_code, null_code}) {
    if (reserved_code.has_value()) {
      used.push_back(*reserved_code);
    }
  }
  // In ascending order every code is carved from the last range, so the
  // ranges are built in O(n log n).
  std::sort(used.begin(), used.end());
  table.free_ranges_ = {{0, MaxCode(width)}};
  for (uint64_t code : used) {
    table.TakeFreeCode(code);
  }
  return table;
}

Result<uint64_t> MappingTable::CodeOf(ValueId id) const {
  if (id >= code_of_value_.size()) {
    return Status::NotFound("ValueId " + std::to_string(id) +
                            " has no codeword");
  }
  return code_of_value_[id];
}

std::optional<ValueId> MappingTable::ValueOfCode(uint64_t code) const {
  const auto it = value_of_code_.find(code);
  if (it == value_of_code_.end()) {
    return std::nullopt;
  }
  return it->second;
}

Result<Cube> MappingTable::RetrievalFunction(ValueId id) const {
  EBI_ASSIGN_OR_RETURN(const uint64_t code, CodeOf(id));
  return Cube::MinTerm(code, width_);
}

Status MappingTable::AddValue(ValueId id, uint64_t code) {
  if (id != code_of_value_.size()) {
    return Status::InvalidArgument(
        "ValueIds must be added densely; expected " +
        std::to_string(code_of_value_.size()) + " got " + std::to_string(id));
  }
  if (!FitsWidth(code, width_)) {
    return Status::OutOfRange("codeword exceeds width " +
                              std::to_string(width_));
  }
  if ((void_code_.has_value() && code == *void_code_) ||
      (null_code_.has_value() && code == *null_code_)) {
    return Status::AlreadyExists("codeword reserved");
  }
  const auto [it, inserted] = value_of_code_.emplace(code, id);
  if (!inserted) {
    return Status::AlreadyExists("codeword " + std::to_string(code) +
                                 " already assigned");
  }
  code_of_value_.push_back(code);
  TakeFreeCode(code);
  return Status::OK();
}

void MappingTable::TakeFreeCode(uint64_t code) {
  // Exactly one range holds a free code: the last one that starts at or
  // below it.
  auto range = std::prev(std::upper_bound(
      free_ranges_.begin(), free_ranges_.end(), code,
      [](uint64_t c, const CodeRange& r) { return c < r.first; }));
  if (range->first == range->last) {
    free_ranges_.erase(range);
  } else if (code == range->first) {
    ++range->first;
  } else if (code == range->last) {
    --range->last;
  } else {
    const CodeRange upper{code + 1, range->last};
    range->last = code - 1;
    free_ranges_.insert(std::next(range), upper);
  }
}

Status MappingTable::ExpandWidth(int new_width) {
  if (new_width < width_) {
    return Status::InvalidArgument("cannot shrink mapping width");
  }
  const uint64_t old_max = MaxCode(width_);
  const uint64_t new_max = MaxCode(new_width);
  if (new_max > old_max) {
    if (!free_ranges_.empty() && free_ranges_.back().last == old_max) {
      free_ranges_.back().last = new_max;
    } else {
      free_ranges_.push_back({old_max + 1, new_max});
    }
  }
  width_ = new_width;
  return Status::OK();
}

std::optional<uint64_t> MappingTable::FirstFreeCode() const {
  if (free_ranges_.empty()) {
    return std::nullopt;
  }
  return free_ranges_.front().first;
}

std::vector<uint64_t> MappingTable::UnusedCodes(size_t limit) const {
  std::vector<uint64_t> out;
  for (const CodeRange& range : free_ranges_) {
    for (uint64_t code = range.first; out.size() < limit; ++code) {
      out.push_back(code);
      if (code == range.last) {
        break;
      }
    }
    if (out.size() >= limit) {
      break;
    }
  }
  return out;
}

size_t MappingTable::NumCodes() const {
  size_t n = value_of_code_.size();
  if (void_code_.has_value()) {
    ++n;
  }
  if (null_code_.has_value()) {
    ++n;
  }
  return n;
}

std::string MappingTable::ToString() const {
  std::string out;
  for (size_t id = 0; id < code_of_value_.size(); ++id) {
    out += 'v';
    out += std::to_string(id);
    out += " -> ";
    for (int b = width_ - 1; b >= 0; --b) {
      out += ((code_of_value_[id] >> b) & 1) ? '1' : '0';
    }
    out += "\n";
  }
  return out;
}

Result<Cover> ReduceSelection(const MappingTable& mapping,
                              const std::vector<ValueId>& ids,
                              const ReductionOptions& options) {
  std::vector<uint64_t> onset;
  onset.reserve(ids.size());
  for (ValueId id : ids) {
    EBI_ASSIGN_OR_RETURN(const uint64_t code, mapping.CodeOf(id));
    onset.push_back(code);
  }
  const std::vector<uint64_t> dc = mapping.UnusedCodes(kMaxDontCareTerms);
  return ReduceRetrievalFunction(onset, dc, mapping.width(), options);
}

}  // namespace ebi
