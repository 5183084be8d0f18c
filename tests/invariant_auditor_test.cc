#include "analysis/auditor.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "index/cold_encoded_bitmap_index.h"
#include "index/index_factory.h"
#include "test_util.h"

namespace ebi {
namespace {

using testing_util::IntTable;
using testing_util::RandomIntTable;

// ---------------------------------------------------------------------------
// Mapping-table invariants (Definition 2.1, Theorem 2.1).

TEST(InvariantAuditorTest, CleanMappingPasses) {
  auto mapping = MappingTable::Create(3, {1, 2, 3, 4, 5}, /*void_code=*/0,
                                      /*null_code=*/6);
  ASSERT_TRUE(mapping.ok());
  const AuditReport report = InvariantAuditor::AuditMapping(*mapping);
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_GT(report.checks_run, 0u);
}

TEST(InvariantAuditorTest, DetectsNonBijectiveMapping) {
  // Two values sharing codeword 1 — MappingTable::Create itself rejects
  // this, so the raw-parts entry point is the seeding route.
  const AuditReport report =
      InvariantAuditor::AuditMappingParts(2, {1, 2, 1});
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.Has(ViolationKind::kDuplicateCodeword))
      << report.ToString();
}

TEST(InvariantAuditorTest, DetectsCodewordOutOfWidth) {
  const AuditReport report =
      InvariantAuditor::AuditMappingParts(2, {1, 5});
  EXPECT_TRUE(report.Has(ViolationKind::kCodewordOutOfWidth))
      << report.ToString();
}

TEST(InvariantAuditorTest, DetectsReservedCodeAssignedToLiveValue) {
  // Theorem 2.1 reserves codeword 0 for the void tuples; a live value
  // occupying it breaks the existence-free selection guarantee.
  const AuditReport report = InvariantAuditor::AuditMappingParts(
      2, {0, 1, 2}, /*void_code=*/uint64_t{0});
  EXPECT_TRUE(report.Has(ViolationKind::kReservedCodeAssigned))
      << report.ToString();
  // The collision also surfaces as a duplicate between the reservation
  // and the value's codeword.
  EXPECT_TRUE(report.Has(ViolationKind::kDuplicateCodeword));
}

TEST(InvariantAuditorTest, ReservedCodesAloneAreClean) {
  const AuditReport report = InvariantAuditor::AuditMappingParts(
      2, {1, 2, 3}, /*void_code=*/uint64_t{0});
  EXPECT_TRUE(report.clean()) << report.ToString();
}

// ---------------------------------------------------------------------------
// Selection well-definedness (Definition 2.5, Figure 3).

TEST(InvariantAuditorTest, WellDefinedSelectionIsClean) {
  // Figure 3(a): a=000, b=100, c=001, d=101, e=011, f=111, g=010, h=110.
  auto mapping = MappingTable::Create(
      3, {0b000, 0b100, 0b001, 0b101, 0b011, 0b111, 0b010, 0b110});
  ASSERT_TRUE(mapping.ok());
  const AuditReport report =
      InvariantAuditor::AuditSelection(*mapping, {0, 1, 2, 3});
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST(InvariantAuditorTest, DetectsNotWellDefinedSelection) {
  // Figure 3(b): the improper mapping for {a,b,c,d}.
  auto mapping = MappingTable::Create(
      3, {0b000, 0b011, 0b001, 0b101, 0b100, 0b111, 0b010, 0b110});
  ASSERT_TRUE(mapping.ok());
  const AuditReport report =
      InvariantAuditor::AuditSelection(*mapping, {0, 1, 2, 3});
  EXPECT_TRUE(report.Has(ViolationKind::kSelectionNotWellDefined))
      << report.ToString();
}

// ---------------------------------------------------------------------------
// Bitmap length / compressed-form contracts.

TEST(InvariantAuditorTest, DetectsWrongLengthBitVector) {
  const AuditReport report =
      InvariantAuditor::AuditBitVector(BitVector(5), /*expected_bits=*/10);
  EXPECT_TRUE(report.Has(ViolationKind::kBitmapLengthMismatch))
      << report.ToString();
}

TEST(InvariantAuditorTest, CleanBitVectorPassesTailCheck) {
  BitVector bits(70);
  bits.Set(69);
  const AuditReport report =
      InvariantAuditor::AuditBitVector(bits, /*expected_bits=*/70);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST(InvariantAuditorTest, DetectsDirtyTailInRawWords) {
  // BitVector's own mutators always mask the tail, so padding-bit
  // corruption has to be seeded through the raw-words overload — the
  // shape a buggy serializer or direct word writer would produce.
  const std::vector<uint64_t> dirty = {0, uint64_t{1} << 40};
  const AuditReport report =
      InvariantAuditor::AuditBitVectorWords(dirty, /*declared_bits=*/70);
  EXPECT_TRUE(report.Has(ViolationKind::kBitmapTailDirty))
      << report.ToString();

  const std::vector<uint64_t> clean = {~uint64_t{0}, (uint64_t{1} << 6) - 1};
  EXPECT_TRUE(
      InvariantAuditor::AuditBitVectorWords(clean, 70).clean());
  // Word-multiple sizes have no padding, so nothing can be dirty.
  EXPECT_TRUE(
      InvariantAuditor::AuditBitVectorWords({~uint64_t{0}}, 64).clean());
}

TEST(InvariantAuditorTest, DetectsWrongWordCountInRawWords) {
  const AuditReport report = InvariantAuditor::AuditBitVectorWords(
      {0, 0, 0}, /*declared_bits=*/70);
  EXPECT_TRUE(report.Has(ViolationKind::kBitmapLengthMismatch))
      << report.ToString();
}

// ---------------------------------------------------------------------------
// Whole-index audits.

TEST(InvariantAuditorTest, CleanAuditAcrossIndexFamilies) {
  auto table = RandomIntTable(300, 25, 11, 0.05);
  for (const IndexKind kind :
       {IndexKind::kSimpleBitmap, IndexKind::kEncodedBitmap,
        IndexKind::kBitSliced,
        IndexKind::kBaseBitSliced, IndexKind::kRangeBasedBitmap,
        IndexKind::kDynamicBitmap}) {
    IoAccountant io;
    auto index = MakeSecondaryIndex(kind, &table->column(0),
                                    &table->existence(), &io);
    ASSERT_TRUE(index != nullptr) << IndexKindName(kind);
    ASSERT_TRUE(index->Build().ok()) << IndexKindName(kind);
    const AuditReport report =
        InvariantAuditor::AuditIndex(*index, table->NumRows());
    EXPECT_TRUE(report.clean())
        << IndexKindName(kind) << ": " << report.ToString();
    EXPECT_GT(report.checks_run, 0u) << IndexKindName(kind);
  }
}

TEST(InvariantAuditorTest, CleanAuditOnColdIndex) {
  auto table = RandomIntTable(200, 20, 5);
  IoAccountant io;
  ColdEncodedBitmapIndexOptions options;
  options.directory = ::testing::TempDir();
  ColdEncodedBitmapIndex index(&table->column(0), &table->existence(), &io,
                               options);
  ASSERT_TRUE(index.Build().ok());
  AuditReport report = InvariantAuditor::AuditIndex(index, table->NumRows());
  EXPECT_TRUE(report.clean()) << report.ToString();
  // The cold walk must actually fetch slices through the store.
  EXPECT_GE(report.checks_run, index.NumSlices());
}

TEST(InvariantAuditorTest, DetectsStaleIndexAfterTableGrows) {
  auto table = IntTable({1, 2, 3, 1, 2, 3, 1, 2});
  IoAccountant io;
  auto index = MakeSecondaryIndex(IndexKind::kSimpleBitmap,
                                  &table->column(0), &table->existence(),
                                  &io);
  ASSERT_TRUE(index->Build().ok());
  // Grow the table without maintaining the index: every vector is now one
  // row short of the table.
  ASSERT_TRUE(table->AppendRow({Value::Int(1)}).ok());
  const AuditReport report =
      InvariantAuditor::AuditIndex(*index, table->NumRows());
  EXPECT_TRUE(report.Has(ViolationKind::kBitmapLengthMismatch))
      << report.ToString();
}

TEST(InvariantAuditorTest, ShortVectorReportedOncePerVector) {
  // A table with NULLs, so the simple index holds a NULL vector beside
  // its value vectors. Auditing against one row more than the index
  // covers makes every vector one bit short: each must be reported
  // exactly once.
  auto table = RandomIntTable(300, 25, 11, 0.05);
  IoAccountant io;
  auto index = MakeSecondaryIndex(IndexKind::kSimpleBitmap,
                                  &table->column(0), &table->existence(),
                                  &io);
  ASSERT_TRUE(index->Build().ok());
  size_t vectors = 0;
  bool saw_null = false;
  index->ForEachAuditVector([&](const AuditableVector& v) {
    ++vectors;
    saw_null = saw_null || std::string(v.role) == "null";
  });
  ASSERT_GT(vectors, 1u);
  ASSERT_TRUE(saw_null);
  const AuditReport report =
      InvariantAuditor::AuditIndex(*index, table->NumRows() + 1);
  EXPECT_EQ(report.CountOf(ViolationKind::kBitmapLengthMismatch), vectors)
      << report.ToString();
  EXPECT_EQ(report.violations.size(), vectors) << report.ToString();
}

// ---------------------------------------------------------------------------
// Report plumbing.

TEST(InvariantAuditorTest, ReportMergeAndToString) {
  AuditReport a = InvariantAuditor::AuditMappingParts(2, {1, 2, 1});
  const size_t a_checks = a.checks_run;
  const size_t a_violations = a.violations.size();
  // Three words cannot back 70 declared bits.
  AuditReport b = InvariantAuditor::AuditBitVectorWords({0, 0, 0}, 70);
  a.Merge(b);
  EXPECT_EQ(a.checks_run, a_checks + b.checks_run);
  EXPECT_EQ(a.violations.size(), a_violations + 1);
  EXPECT_EQ(a.CountOf(ViolationKind::kBitmapLengthMismatch), 1u);
  const std::string rendered = a.ToString();
  EXPECT_NE(rendered.find("DuplicateCodeword"), std::string::npos);
  EXPECT_NE(rendered.find("BitmapLengthMismatch"), std::string::npos);
}

}  // namespace
}  // namespace ebi
