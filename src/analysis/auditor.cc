#include "analysis/auditor.h"

#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "boolean/cube.h"
#include "encoding/well_defined.h"
#include "index/cold_encoded_bitmap_index.h"

namespace ebi {

namespace {

std::string VectorLabel(const char* role, size_t ordinal) {
  return std::string(role) + " #" + std::to_string(ordinal);
}

}  // namespace

const char* ViolationKindName(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kDuplicateCodeword:
      return "DuplicateCodeword";
    case ViolationKind::kCodewordOutOfWidth:
      return "CodewordOutOfWidth";
    case ViolationKind::kInverseMapMismatch:
      return "InverseMapMismatch";
    case ViolationKind::kReservedCodeAssigned:
      return "ReservedCodeAssigned";
    case ViolationKind::kRetrievalFunctionMismatch:
      return "RetrievalFunctionMismatch";
    case ViolationKind::kSelectionNotWellDefined:
      return "SelectionNotWellDefined";
    case ViolationKind::kBitmapLengthMismatch:
      return "BitmapLengthMismatch";
    case ViolationKind::kBitmapTailDirty:
      return "BitmapTailDirty";
    case ViolationKind::kPersistedBitmapCorrupt:
      return "PersistedBitmapCorrupt";
    case ViolationKind::kClusterPartitionMismatch:
      return "ClusterPartitionMismatch";
  }
  return "Unknown";
}

bool AuditReport::Has(ViolationKind kind) const {
  for (const Violation& v : violations) {
    if (v.kind == kind) {
      return true;
    }
  }
  return false;
}

size_t AuditReport::CountOf(ViolationKind kind) const {
  size_t n = 0;
  for (const Violation& v : violations) {
    if (v.kind == kind) {
      ++n;
    }
  }
  return n;
}

void AuditReport::Merge(AuditReport other) {
  checks_run += other.checks_run;
  violations.insert(violations.end(),
                    std::make_move_iterator(other.violations.begin()),
                    std::make_move_iterator(other.violations.end()));
}

std::string AuditReport::ToString() const {
  std::string out = "audit: ";
  out += std::to_string(checks_run);
  out += " checks, ";
  out += std::to_string(violations.size());
  out += " violations";
  for (const Violation& v : violations) {
    out += "\n  [";
    out += ViolationKindName(v.kind);
    out += "] entity ";
    out += std::to_string(v.entity);
    out += ": ";
    out += v.detail;
  }
  return out;
}

AuditReport InvariantAuditor::AuditMappingParts(
    int width, const std::vector<uint64_t>& codes,
    std::optional<uint64_t> void_code, std::optional<uint64_t> null_code) {
  AuditReport report;
  const uint64_t limit =
      width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  std::unordered_map<uint64_t, size_t> first_owner;

  // Reserved codewords participate in the distinctness and width checks
  // like any other codeword of the mapping.
  std::vector<std::pair<uint64_t, size_t>> all;
  all.reserve(codes.size() + 2);
  for (size_t id = 0; id < codes.size(); ++id) {
    all.emplace_back(codes[id], id);
  }
  constexpr size_t kVoidEntity = ~size_t{0};
  constexpr size_t kNullEntity = ~size_t{0} - 1;
  if (void_code.has_value()) {
    all.emplace_back(*void_code, kVoidEntity);
  }
  if (null_code.has_value()) {
    all.emplace_back(*null_code, kNullEntity);
  }

  for (const auto& [code, entity] : all) {
    ++report.checks_run;
    if (code > limit) {
      report.violations.push_back(
          {ViolationKind::kCodewordOutOfWidth, entity,
           "codeword " + std::to_string(code) + " does not fit in " +
               std::to_string(width) + " bits"});
    }
    ++report.checks_run;
    auto [it, inserted] = first_owner.emplace(code, entity);
    if (!inserted) {
      report.violations.push_back(
          {ViolationKind::kDuplicateCodeword, entity,
           "codeword " + std::to_string(code) +
               " already assigned to entity " + std::to_string(it->second)});
    }
  }

  // Theorem 2.1: a reserved codeword must not double as a live value's
  // codeword. The duplicate check above catches collisions when the
  // reservation is declared; here we additionally flag the canonical
  // "code 0 assigned to a live value while 0 is meant to be void" shape
  // when a reservation for 0 exists.
  for (size_t id = 0; id < codes.size(); ++id) {
    ++report.checks_run;
    if ((void_code.has_value() && codes[id] == *void_code) ||
        (null_code.has_value() && codes[id] == *null_code)) {
      report.violations.push_back(
          {ViolationKind::kReservedCodeAssigned, id,
           "value " + std::to_string(id) + " occupies reserved codeword " +
               std::to_string(codes[id])});
    }
  }
  return report;
}

AuditReport InvariantAuditor::AuditMapping(const MappingTable& mapping) {
  AuditReport report = AuditMappingParts(mapping.width(), mapping.codes(),
                                         mapping.void_code(),
                                         mapping.null_code());
  const std::vector<uint64_t>& codes = mapping.codes();
  for (size_t id = 0; id < codes.size(); ++id) {
    // Inverse map: ValueOfCode(CodeOf(v)) == v (Definition 2.1's
    // one-to-one requirement, checked through the public API).
    ++report.checks_run;
    const std::optional<ValueId> back = mapping.ValueOfCode(codes[id]);
    if (!back.has_value() || *back != static_cast<ValueId>(id)) {
      report.violations.push_back(
          {ViolationKind::kInverseMapMismatch, id,
           "ValueOfCode(" + std::to_string(codes[id]) + ") = " +
               (back.has_value() ? std::to_string(*back) : "nullopt") +
               ", expected " + std::to_string(id)});
    }
    // Retrieval function: f_v must be exactly the min-term of v's
    // codeword over the mapping's width (Definition 2.1).
    ++report.checks_run;
    const Result<Cube> fv = mapping.RetrievalFunction(id);
    if (!fv.ok() ||
        !(fv.value() == Cube::MinTerm(codes[id], mapping.width()))) {
      report.violations.push_back(
          {ViolationKind::kRetrievalFunctionMismatch, id,
           "retrieval function of value " + std::to_string(id) +
               " is not the min-term of codeword " +
               std::to_string(codes[id])});
    }
  }
  return report;
}

AuditReport InvariantAuditor::AuditSelection(
    const MappingTable& mapping, const std::vector<ValueId>& subdomain) {
  AuditReport report;
  ++report.checks_run;
  const Result<bool> wd =
      IsWellDefined(mapping, subdomain, mapping.NumValues());
  if (!wd.ok()) {
    report.violations.push_back(
        {ViolationKind::kSelectionNotWellDefined, subdomain.size(),
         "well-definedness check failed: " + wd.status().ToString()});
  } else if (!wd.value()) {
    report.violations.push_back(
        {ViolationKind::kSelectionNotWellDefined, subdomain.size(),
         "mapping is not well defined for the selection (Definition 2.5): "
         "no subexpression ordering evaluates it without extra vectors"});
  }
  return report;
}

AuditReport InvariantAuditor::AuditBitVector(const BitVector& bits,
                                             size_t expected_bits,
                                             size_t ordinal) {
  AuditReport report;
  ++report.checks_run;
  if (bits.size() != expected_bits) {
    report.violations.push_back(
        {ViolationKind::kBitmapLengthMismatch, ordinal,
         VectorLabel("vector", ordinal) + " holds " +
             std::to_string(bits.size()) + " bits, expected " +
             std::to_string(expected_bits)});
  }
  ++report.checks_run;
  if (bits.NumWords() != (bits.size() + 63) / 64) {
    report.violations.push_back(
        {ViolationKind::kBitmapLengthMismatch, ordinal,
         VectorLabel("vector", ordinal) + " backing array holds " +
             std::to_string(bits.NumWords()) + " words for " +
             std::to_string(bits.size()) + " bits"});
  }
  ++report.checks_run;
  if (!bits.TailIsClean()) {
    report.violations.push_back(
        {ViolationKind::kBitmapTailDirty, ordinal,
         VectorLabel("vector", ordinal) +
             " has set padding bits above its size of " +
             std::to_string(bits.size())});
  }
  return report;
}

AuditReport InvariantAuditor::AuditBitVectorWords(
    const std::vector<uint64_t>& words, size_t declared_bits,
    size_t ordinal) {
  AuditReport report;
  ++report.checks_run;
  if (words.size() != (declared_bits + 63) / 64) {
    report.violations.push_back(
        {ViolationKind::kBitmapLengthMismatch, ordinal,
         VectorLabel("vector", ordinal) + " word buffer holds " +
             std::to_string(words.size()) + " words for " +
             std::to_string(declared_bits) + " declared bits"});
  }
  ++report.checks_run;
  const size_t tail = declared_bits % 64;
  if (tail != 0 && !words.empty() &&
      (words.back() & ~((uint64_t{1} << tail) - 1)) != 0) {
    report.violations.push_back(
        {ViolationKind::kBitmapTailDirty, ordinal,
         VectorLabel("vector", ordinal) +
             " word buffer has set padding bits above declared bit " +
             std::to_string(declared_bits)});
  }
  return report;
}

AuditReport InvariantAuditor::AuditIndex(SecondaryIndex& index,
                                         size_t expected_rows) {
  AuditReport report;
  index.ForEachAuditVector([&](const AuditableVector& v) {
    report.Merge(AuditBitVector(*v.plain, expected_rows, v.ordinal));
  });
  if (const MappingTable* mapping = index.audit_mapping()) {
    report.Merge(AuditMapping(*mapping));
  }
  // Cold indexes keep their slices in the backing store; fetch each one
  // back through the pool (validating the payload on the way in)
  // and hold it to the same length contract.
  if (auto* cold = dynamic_cast<ColdEncodedBitmapIndex*>(&index)) {
    for (size_t i = 0; i < cold->NumSlices(); ++i) {
      ++report.checks_run;
      Result<BitVector> slice = cold->FetchSlice(i);
      if (!slice.ok()) {
        report.violations.push_back(
            {ViolationKind::kPersistedBitmapCorrupt, i,
             VectorLabel("cold slice", i) +
                 " failed to load: " + slice.status().ToString()});
        continue;
      }
      report.Merge(AuditBitVector(slice.value(), expected_rows, i));
    }
  }
  return report;
}

AuditReport InvariantAuditor::AuditClusterPartition(
    const std::vector<std::vector<uint64_t>>& shard_rows,
    uint64_t total_rows) {
  AuditReport report;
  // owners[g] = 1 + shard that claimed global id g; 0 = unclaimed.
  std::vector<size_t> owners(total_rows, 0);
  for (size_t s = 0; s < shard_rows.size(); ++s) {
    uint64_t previous = 0;
    bool first = true;
    for (uint64_t global : shard_rows[s]) {
      ++report.checks_run;
      if (global >= total_rows) {
        report.violations.push_back(
            {ViolationKind::kClusterPartitionMismatch, s,
             "shard " + std::to_string(s) + " claims global row " +
                 std::to_string(global) + " beyond total_rows " +
                 std::to_string(total_rows)});
        continue;
      }
      if (!first && global <= previous) {
        report.violations.push_back(
            {ViolationKind::kClusterPartitionMismatch, s,
             "shard " + std::to_string(s) +
                 "'s map is not strictly increasing at global row " +
                 std::to_string(global) +
                 " (local order must equal cluster append order)"});
      }
      if (owners[global] != 0) {
        report.violations.push_back(
            {ViolationKind::kClusterPartitionMismatch, s,
             "global row " + std::to_string(global) +
                 " claimed by both shard " +
                 std::to_string(owners[global] - 1) + " and shard " +
                 std::to_string(s)});
      } else {
        owners[global] = s + 1;
      }
      previous = global;
      first = false;
    }
  }
  for (uint64_t g = 0; g < total_rows; ++g) {
    ++report.checks_run;
    if (owners[g] == 0) {
      report.violations.push_back(
          {ViolationKind::kClusterPartitionMismatch,
           static_cast<size_t>(g),
           "global row " + std::to_string(g) + " is owned by no shard"});
    }
  }
  return report;
}

}  // namespace ebi
