#include "index/cold_encoded_bitmap_index.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "boolean/cover.h"
#include "index/encoded_bitmap_index.h"
#include "query/executor.h"
#include "query/maintenance.h"
#include "storage/engine/crc32.h"
#include "storage/engine/page_file.h"
#include "test_util.h"

namespace ebi {
namespace {

using testing_util::IntTable;
using testing_util::RandomIntTable;
using testing_util::ScanEquals;
using testing_util::ScanRange;

ColdEncodedBitmapIndexOptions TestOptions(size_t pool = 4) {
  ColdEncodedBitmapIndexOptions options;
  options.pool_pages = pool;
  options.directory = ::testing::TempDir();
  return options;
}

class ColdEncodedBitmapIndexTest : public ::testing::Test {
 protected:
  void Init(std::unique_ptr<Table> table, size_t pool = 4) {
    table_ = std::move(table);
    index_ = std::make_unique<ColdEncodedBitmapIndex>(
        &table_->column(0), &table_->existence(), &io_, TestOptions(pool));
    ASSERT_TRUE(index_->Build().ok());
  }

  IoAccountant io_;
  std::unique_ptr<Table> table_;
  std::unique_ptr<ColdEncodedBitmapIndex> index_;
};

TEST_F(ColdEncodedBitmapIndexTest, AnswersMatchScan) {
  Init(IntTable({5, 7, 5, 9, 7, 5, 11}));
  for (int64_t v : {5, 7, 9, 11, 404}) {
    const auto result = index_->EvaluateEquals(Value::Int(v));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result, ScanEquals(*table_, table_->column(0), v)) << v;
  }
}

TEST_F(ColdEncodedBitmapIndexTest, MatchesHotIndexOnRandomData) {
  auto table = RandomIntTable(400, 60, 31, 0.05);
  IoAccountant hot_io;
  IoAccountant cold_io;
  EncodedBitmapIndex hot(&table->column(0), &table->existence(), &hot_io);
  ColdEncodedBitmapIndex cold(&table->column(0), &table->existence(),
                              &cold_io, TestOptions());
  ASSERT_TRUE(hot.Build().ok());
  ASSERT_TRUE(cold.Build().ok());
  Rng rng(77);
  for (int q = 0; q < 15; ++q) {
    const int64_t lo = static_cast<int64_t>(rng.UniformInt(60));
    const int64_t hi = lo + static_cast<int64_t>(rng.UniformInt(20));
    const auto a = hot.EvaluateRange(lo, hi);
    const auto b = cold.EvaluateRange(lo, hi);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << lo << ".." << hi;
  }
}

TEST_F(ColdEncodedBitmapIndexTest, OnlyReferencedSlicesAreFaulted) {
  // Build-time Put()s warm the pool; drain it with a tiny pool so every
  // query read is observable.
  Init(IntTable({0, 1, 2, 3, 4, 5, 6, 7}), /*pool=*/1);
  index_->ResetStoreStats();
  io_.Reset();
  // {0..3} reduces to one variable (+dc) under the sequential mapping
  // shifted by void... measure simply: vector reads < total slices.
  const auto result = index_->EvaluateIn(
      {Value::Int(0), Value::Int(1), Value::Int(2), Value::Int(3)});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Count(), 4u);
  EXPECT_LT(io_.stats().vectors_read,
            static_cast<uint64_t>(index_->NumVectors()));
}

TEST_F(ColdEncodedBitmapIndexTest, RepeatedQueriesHitThePool) {
  Init(RandomIntTable(300, 20, 41), /*pool=*/8);
  ASSERT_TRUE(index_->EvaluateEquals(Value::Int(3)).ok());
  index_->ResetStoreStats();
  io_.Reset();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(index_->EvaluateEquals(Value::Int(3)).ok());
  }
  // All slices stayed resident: no file reads charged.
  EXPECT_EQ(io_.stats().vectors_read, 0u);
  EXPECT_GT(index_->store_stats().hits, 0u);
  EXPECT_EQ(index_->store_stats().misses, 0u);
}

TEST_F(ColdEncodedBitmapIndexTest, TinyPoolForcesFaults) {
  Init(RandomIntTable(300, 200, 43), /*pool=*/1);
  ASSERT_TRUE(index_->EvaluateRange(0, 150).ok());
  index_->ResetStoreStats();
  io_.Reset();
  ASSERT_TRUE(index_->EvaluateRange(0, 150).ok());
  // More referenced slices than pool slots: some must fault and charge.
  EXPECT_GT(io_.stats().vectors_read, 0u);
  EXPECT_GT(index_->store_stats().misses, 0u);
}

TEST_F(ColdEncodedBitmapIndexTest, AppendsAndDeletes) {
  Init(IntTable({1, 2, 3}));
  ASSERT_TRUE(table_->AppendRow({Value::Int(2)}).ok());
  ASSERT_TRUE(index_->Append(3).ok());
  ASSERT_TRUE(table_->AppendRow({Value::Int(99)}).ok());  // New value.
  ASSERT_TRUE(index_->Append(4).ok());
  ASSERT_TRUE(table_->DeleteRow(1).ok());
  ASSERT_TRUE(index_->MarkDeleted(1).ok());
  const auto two = index_->EvaluateEquals(Value::Int(2));
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(two->ToString(), "00010");
  const auto nn = index_->EvaluateEquals(Value::Int(99));
  ASSERT_TRUE(nn.ok());
  EXPECT_EQ(nn->ToString(), "00001");
}

TEST_F(ColdEncodedBitmapIndexTest, WidthExpansionThroughStore) {
  ColdEncodedBitmapIndexOptions options = TestOptions();
  auto table = IntTable({0});
  table_ = std::move(table);
  index_ = std::make_unique<ColdEncodedBitmapIndex>(
      &table_->column(0), &table_->existence(), &io_, options);
  ASSERT_TRUE(index_->Build().ok());
  for (int64_t v = 1; v < 20; ++v) {
    ASSERT_TRUE(table_->AppendRow({Value::Int(v)}).ok());
    ASSERT_TRUE(index_->Append(static_cast<size_t>(v)).ok());
  }
  for (int64_t v = 0; v < 20; v += 5) {
    const auto result = index_->EvaluateEquals(Value::Int(v));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result, ScanEquals(*table_, table_->column(0), v)) << v;
  }
}

// ------------------------------------------------- streamed cover evaluation

// A 4 KB page carries 4,072 payload bytes = 509 words, and a slice's words
// start at payload offset 20, so every page boundary splits a word. Row
// counts around multiples of 509 * 64 put the last word, and the padding
// bits, on either side of a boundary.
constexpr size_t kRowsPerPage = 509 * 64;
constexpr size_t kCardinality = 37;  // 6 slices with the void codeword.

std::vector<size_t> BoundaryRowCounts() {
  std::vector<size_t> rows;
  for (const size_t pages : {size_t{1}, size_t{2}}) {
    for (const int delta : {-65, -64, -63, -1, 0, 1, 63, 64, 65}) {
      rows.push_back(static_cast<size_t>(
          static_cast<int64_t>(pages * kRowsPerPage) + delta));
    }
  }
  // 6 slices of 13 pages: a working set past a 64-page pool.
  rows.push_back(12 * kRowsPerPage + 1);
  return rows;
}

/// Equality, IN-list and range selections over [0, kCardinality).
std::vector<std::vector<Value>> StreamingQueries() {
  std::vector<std::vector<Value>> queries;
  for (const int64_t v : {0, 17, 36}) {
    queries.push_back({Value::Int(v)});
  }
  queries.push_back({Value::Int(1), Value::Int(2), Value::Int(3)});
  std::vector<Value> wide;
  for (int64_t v = 4; v < 30; v += 2) {
    wide.push_back(Value::Int(v));
  }
  queries.push_back(wide);
  return queries;
}

TEST(ColdHotDifferentialTest, SharedEncodingAcrossBuildAppendAndDelete) {
  // 60 values, NULLs and deleted rows: void + NULL + 60 codes fill 62 of
  // the 64 codewords at width 6, so the batch's 10 new values grow it.
  auto table = RandomIntTable(5000, 60, 2718, /*null_fraction=*/0.1);
  for (size_t row = 3; row < table->NumRows(); row += 97) {
    ASSERT_TRUE(table->DeleteRow(row).ok());
  }
  const Column& column = table->column(0);
  IoAccountant hot_io;
  IoAccountant cold_io;
  EncodedBitmapIndex hot(&column, &table->existence(), &hot_io);
  ColdEncodedBitmapIndex cold(&column, &table->existence(), &cold_io,
                              TestOptions());
  ASSERT_TRUE(hot.Build().ok());
  ASSERT_TRUE(cold.Build().ok());
  ASSERT_EQ(hot.mapping().width(), 6);

  MaintenanceDriver maintenance(table.get());
  ASSERT_TRUE(maintenance.AttachIndex(&hot).ok());
  ASSERT_TRUE(maintenance.AttachIndex(&cold).ok());
  std::vector<std::vector<Value>> batch;
  for (int64_t v = 0; v < 70; v += 3) {
    batch.push_back({Value::Int(v)});
    batch.push_back({Value::Null()});
  }
  ASSERT_TRUE(maintenance.AppendRows(batch).ok());
  ASSERT_EQ(hot.mapping().width(), 7);
  ASSERT_TRUE(maintenance.DeleteRow(17).ok());
  ASSERT_TRUE(maintenance.DeleteRow(table->NumRows() - 2).ok());

  EXPECT_EQ(cold.mapping().ToString(), hot.mapping().ToString());
  ASSERT_EQ(cold.NumSlices(), hot.slices().size());
  for (size_t i = 0; i < cold.NumSlices(); ++i) {
    const auto slice = cold.FetchSlice(i);
    ASSERT_TRUE(slice.ok());
    EXPECT_EQ(*slice, hot.slices()[i]) << "slice " << i;
  }
  const auto same = [](const Result<BitVector>& a, const Result<BitVector>& b,
                       const std::string& what) {
    ASSERT_TRUE(a.ok()) << what << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << what << ": " << b.status().ToString();
    EXPECT_EQ(*a, *b) << what;
  };
  for (int64_t v = 0; v < 72; ++v) {
    same(hot.EvaluateEquals(Value::Int(v)), cold.EvaluateEquals(Value::Int(v)),
         "= " + std::to_string(v));
  }
  same(hot.EvaluateIn({Value::Int(1), Value::Int(61), Value::Int(64)}),
       cold.EvaluateIn({Value::Int(1), Value::Int(61), Value::Int(64)}),
       "IN");
  for (const auto& [lo, hi] : {std::pair<int64_t, int64_t>{0, 9},
                               {5, 64}, {59, 71}, {0, 80}}) {
    same(hot.EvaluateRange(lo, hi), cold.EvaluateRange(lo, hi),
         "range " + std::to_string(lo) + ".." + std::to_string(hi));
  }
  EXPECT_TRUE(cold.SupportsIsNull());
  same(hot.EvaluateIsNull(), cold.EvaluateIsNull(), "IS NULL");

  // NOT IN masks NULL rows through each index's NULL codeword.
  const Predicate not_in =
      Predicate::NotIn("a", {Value::Int(2), Value::Int(63)});
  SelectionExecutor hot_exec(table.get(), &hot_io);
  SelectionExecutor cold_exec(table.get(), &cold_io);
  hot_exec.RegisterIndex("a", &hot);
  cold_exec.RegisterIndex("a", &cold);
  const auto hot_rows = hot_exec.Select({not_in});
  const auto cold_rows = cold_exec.Select({not_in});
  const auto scan = hot_exec.SelectByScan({not_in});
  ASSERT_TRUE(hot_rows.ok());
  ASSERT_TRUE(cold_rows.ok());
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(cold_rows->rows, hot_rows->rows);
  EXPECT_EQ(cold_rows->rows, *scan);
}

TEST(ColdAppendBatchTest, RewritesEachSliceOncePerBatch) {
  // Three pages per slice and a one-page pool: every page a batch writes
  // is written back exactly once by eviction or by the final Sync.
  auto table = RandomIntTable(2 * kRowsPerPage + 1, kCardinality, 99);
  IoAccountant io;
  ColdEncodedBitmapIndex cold(&table->column(0), &table->existence(), &io,
                              TestOptions(/*pool=*/1));
  ASSERT_TRUE(cold.Build().ok());
  ASSERT_TRUE(cold.storage_engine()->Sync().ok());
  const size_t k = cold.NumSlices();
  const size_t first = table->NumRows();
  for (int64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(table->AppendRow({Value::Int(i % 37)}).ok());
  }
  io.Reset();
  cold.ResetStoreStats();
  ASSERT_TRUE(cold.AppendBatch(first, 64).ok());
  ASSERT_EQ(cold.NumSlices(), k);  // No width growth.
  const BitmapStoreStats stats = cold.store_stats();
  EXPECT_EQ(stats.hits + stats.misses, k);
  ASSERT_TRUE(cold.storage_engine()->Sync().ok());
  uint64_t pages = 0;
  for (size_t i = 0; i < k; ++i) {
    const auto slice_pages = cold.storage_engine()->SlicePages(i);
    ASSERT_TRUE(slice_pages.ok());
    pages += *slice_pages;
  }
  EXPECT_EQ(io.stats().pages_written, pages);
  const auto answer = cold.EvaluateEquals(Value::Int(5));
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(*answer, ScanEquals(*table, table->column(0), 5));
}

TEST(ColdStreamingTest, AnswersMatchInMemoryAcrossPageBoundaries) {
  for (const size_t rows : BoundaryRowCounts()) {
    auto table = RandomIntTable(rows, kCardinality, 900 + rows);
    IoAccountant hot_io;
    EncodedBitmapIndex hot(&table->column(0), &table->existence(), &hot_io);
    ASSERT_TRUE(hot.Build().ok());
    // The last pool holds every slice's pages.
    for (const size_t pool :
         {size_t{1}, size_t{4}, size_t{64}, size_t{128}}) {
      IoAccountant cold_io;
      ColdEncodedBitmapIndex cold(&table->column(0), &table->existence(),
                                  &cold_io, TestOptions(pool));
      ASSERT_TRUE(cold.Build().ok());
      for (const std::vector<Value>& values : StreamingQueries()) {
        const auto want = hot.EvaluateIn(values);
        const auto got = cold.EvaluateIn(values);
        ASSERT_TRUE(want.ok());
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(*got, *want) << "rows=" << rows << " pool=" << pool;
      }
      const auto range_want = hot.EvaluateRange(5, 31);
      const auto range_got = cold.EvaluateRange(5, 31);
      ASSERT_TRUE(range_want.ok());
      ASSERT_TRUE(range_got.ok());
      EXPECT_EQ(*range_got, *range_want) << "rows=" << rows;
      // The whole-slice read drains the same reader: the header page and
      // the short last page pass through its staging buffer, the pages
      // between copy straight into the slice's words, and at these row
      // counts the last word lands on either side of a page boundary.
      ASSERT_EQ(cold.NumSlices(), hot.slices().size());
      for (size_t i = 0; i < cold.NumSlices(); ++i) {
        const auto slice = cold.FetchSlice(i);
        ASSERT_TRUE(slice.ok()) << slice.status().ToString();
        EXPECT_EQ(*slice, hot.slices()[i])
            << "rows=" << rows << " pool=" << pool << " slice=" << i;
      }
    }
  }
}

TEST(ColdStreamingTest, ChargesMatchStoredExtents) {
  const size_t rows = 2 * kRowsPerPage + 63;
  auto table = RandomIntTable(rows, kCardinality, 4242);
  IoAccountant hot_io;
  EncodedBitmapIndex hot(&table->column(0), &table->existence(), &hot_io);
  ASSERT_TRUE(hot.Build().ok());
  for (const size_t pool : {size_t{1}, size_t{64}}) {
    IoAccountant io;
    ColdEncodedBitmapIndex cold(&table->column(0), &table->existence(), &io,
                                TestOptions(pool));
    ASSERT_TRUE(cold.Build().ok());
    for (const std::vector<Value>& values : StreamingQueries()) {
      const auto cover = hot.CoverForIn(values);
      ASSERT_TRUE(cover.ok());
      uint64_t pages = 0;
      uint64_t bytes = 0;
      const uint64_t vars = VariablesOf(*cover);
      for (size_t i = 0; i < cold.NumSlices(); ++i) {
        if ((vars >> i) & 1) {
          const auto slice_pages = cold.storage_engine()->SlicePages(i);
          const auto slice_bytes = cold.storage_engine()->SliceBytes(i);
          ASSERT_TRUE(slice_pages.ok());
          ASSERT_TRUE(slice_bytes.ok());
          pages += *slice_pages;
          bytes += *slice_bytes;
        }
      }
      const uint64_t vectors = static_cast<uint64_t>(DistinctVariables(*cover));
      // Two reads of the referenced slices, charged alike: the streamed
      // cover pass, and a whole-slice FetchSlice of each.
      const std::function<bool()> evaluate = [&] {
        return cold.EvaluateIn(values).ok();
      };
      const std::function<bool()> fetch = [&] {
        for (size_t i = 0; i < cold.NumSlices(); ++i) {
          if (((vars >> i) & 1) != 0 && !cold.FetchSlice(i).ok()) {
            return false;
          }
        }
        return true;
      };
      for (const std::function<bool()>& read : {evaluate, fetch}) {
        if (pool == 1) {
          // Every page of every referenced slice faults exactly once.
          io.Reset();
          cold.ResetStoreStats();
          ASSERT_TRUE(read());
          EXPECT_EQ(io.stats().pages_read, pages);
          EXPECT_EQ(io.stats().bytes_read, bytes);
          EXPECT_EQ(io.stats().vectors_read, vectors);
          EXPECT_EQ(cold.store_stats().misses, vectors);
          EXPECT_EQ(cold.store_stats().hits, 0u);
        } else {
          // The pool holds every page: a repeated read is all hits.
          ASSERT_TRUE(read());
          io.Reset();
          cold.ResetStoreStats();
          ASSERT_TRUE(read());
          EXPECT_EQ(io.stats().pages_read, 0u);
          EXPECT_EQ(io.stats().bytes_read, 0u);
          EXPECT_EQ(io.stats().vectors_read, 0u);
          EXPECT_EQ(cold.store_stats().hits, vectors);
          EXPECT_EQ(cold.store_stats().misses, 0u);
        }
      }
    }
  }
}

class ColdCorruptionTest : public ::testing::Test {
 protected:
  // Three pages per slice; a one-page pool, so after Sync only the last
  // slice's last page is resident and every corrupted page is read from
  // disk.
  void SetUp() override {
    dir_ = std::string(::testing::TempDir()) + "/ebi_cold_corrupt_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir_);
    table_ = RandomIntTable(2 * kRowsPerPage + 1, kCardinality, 77);
    ColdEncodedBitmapIndexOptions options = TestOptions(/*pool=*/1);
    options.directory = dir_;
    index_ = std::make_unique<ColdEncodedBitmapIndex>(
        &table_->column(0), &table_->existence(), &io_, options);
    ASSERT_TRUE(index_->Build().ok());
    ASSERT_TRUE(index_->storage_engine()->Sync().ok());
  }

  void TearDown() override {
    index_.reset();
    std::filesystem::remove_all(dir_);
  }

  /// Applies `edit` to page `page_in_slice` of every slice on disk,
  /// optionally re-sealing the page checksum so only the layers above
  /// the page file can notice.
  void Corrupt(size_t page_in_slice,
               const std::function<void(uint8_t* page)>& edit, bool reseal) {
    engine::StorageEngine* engine = index_->storage_engine();
    const size_t page_size = engine->page_size();
    std::FILE* raw = std::fopen(engine->path().c_str(), "r+b");
    ASSERT_NE(raw, nullptr);
    uint32_t first_page = 0;
    for (size_t i = 0; i < index_->NumSlices(); ++i) {
      const auto pages = index_->storage_engine()->SlicePages(i);
      ASSERT_TRUE(pages.ok());
      ASSERT_GT(*pages, page_in_slice);
      const long offset =
          static_cast<long>((first_page + page_in_slice) * page_size);
      std::vector<uint8_t> page(page_size);
      ASSERT_EQ(std::fseek(raw, offset, SEEK_SET), 0);
      ASSERT_EQ(std::fread(page.data(), 1, page_size, raw), page_size);
      edit(page.data());
      if (reseal) {
        const uint32_t crc =
            engine::Crc32(page.data() + engine::PageFile::kHeaderBytes,
                          engine::PageFile::PayloadBytes(page.data()));
        for (int b = 0; b < 4; ++b) {
          page[16 + b] = static_cast<uint8_t>(crc >> (8 * b));
        }
      }
      ASSERT_EQ(std::fseek(raw, offset, SEEK_SET), 0);
      ASSERT_EQ(std::fwrite(page.data(), 1, page_size, raw), page_size);
      first_page += *pages;
    }
    std::fclose(raw);
  }

  /// Every streaming query must fail, never answer.
  void ExpectQueriesFail(StatusCode code) {
    for (const std::vector<Value>& values : StreamingQueries()) {
      const auto result = index_->EvaluateIn(values);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), code) << result.status().ToString();
    }
  }

  std::string dir_;
  IoAccountant io_;
  std::unique_ptr<Table> table_;
  std::unique_ptr<ColdEncodedBitmapIndex> index_;
};

TEST_F(ColdCorruptionTest, FlippedPayloadByteFailsTheQuery) {
  // Mid-slice: the header page streams fine, the pass dies on page two.
  Corrupt(/*page_in_slice=*/1,
          [](uint8_t* page) {
            page[engine::PageFile::kHeaderBytes + 100] ^= 0xFF;
          },
          /*reseal=*/false);
  ExpectQueriesFail(StatusCode::kInternal);
}

TEST_F(ColdCorruptionTest, CorruptDeclaredSizeFailsTheQuery) {
  // The declared bit size sits at payload offset 12 (after the stored
  // magic, the format tag and the vector magic). Re-sealed, so the page
  // checksum passes and the reader's header check must catch it.
  const uint64_t wrong = table_->NumRows() + 64;
  Corrupt(/*page_in_slice=*/0,
          [wrong](uint8_t* page) {
            for (int b = 0; b < 8; ++b) {
              page[engine::PageFile::kHeaderBytes + 12 + b] =
                  static_cast<uint8_t>(wrong >> (8 * b));
            }
          },
          /*reseal=*/true);
  ExpectQueriesFail(StatusCode::kInternal);
}

TEST_F(ColdCorruptionTest, ShortDeclaredSizeFailsTheFetch) {
  // The whole-slice read sizes its word array from the extent map, so a
  // re-sealed header declaring one word fewer than the payload holds
  // must be rejected, not loaded as a shorter slice. The size is a whole
  // number of words, so no padding bit gives it away. Page 0 of every
  // slice is read from disk.
  const uint64_t wrong = table_->NumRows() / 64 * 64;
  Corrupt(/*page_in_slice=*/0,
          [wrong](uint8_t* page) {
            for (int b = 0; b < 8; ++b) {
              page[engine::PageFile::kHeaderBytes + 12 + b] =
                  static_cast<uint8_t>(wrong >> (8 * b));
            }
          },
          /*reseal=*/true);
  for (size_t i = 0; i < index_->NumSlices(); ++i) {
    const auto slice = index_->FetchSlice(i);
    ASSERT_FALSE(slice.ok()) << "slice " << i;
    EXPECT_EQ(slice.status().code(), StatusCode::kInvalidArgument)
        << slice.status().ToString();
  }
}

TEST_F(ColdCorruptionTest, ShortDeclaredSizeFailsVerification) {
  // The header edit above, audited on disk: VerifySlice applies the
  // checks of a read, so it rejects every slice FetchSlice rejects.
  const uint64_t wrong = table_->NumRows() / 64 * 64;
  Corrupt(/*page_in_slice=*/0,
          [wrong](uint8_t* page) {
            for (int b = 0; b < 8; ++b) {
              page[engine::PageFile::kHeaderBytes + 12 + b] =
                  static_cast<uint8_t>(wrong >> (8 * b));
            }
          },
          /*reseal=*/true);
  engine::StorageEngine* engine = index_->storage_engine();
  for (uint32_t i = 0; i < index_->NumSlices(); ++i) {
    const Status verified = engine->VerifySlice(i);
    EXPECT_EQ(verified.code(), StatusCode::kInvalidArgument)
        << "slice " << i << ": " << verified.ToString();
  }
}

TEST_F(ColdCorruptionTest, SetPaddingBitsFailTheQuery) {
  // 2 * 509 + 1 words: the last word is the third page's payload bytes
  // 20..27, and only its lowest bit is a row. Setting bits 8..15 breaks
  // the padding invariant; re-sealed, so only the reader's end-of-stream
  // check can notice.
  Corrupt(/*page_in_slice=*/2,
          [](uint8_t* page) {
            page[engine::PageFile::kHeaderBytes + 21] = 0xFF;
          },
          /*reseal=*/true);
  ExpectQueriesFail(StatusCode::kInvalidArgument);
}

TEST_F(ColdCorruptionTest, BytesPastTheExtentFailTheQuery) {
  // The last page claims 8 more payload bytes (zeros, re-sealed) than the
  // extent map records: every word reads back, but the stream does not
  // end where the vector does.
  Corrupt(/*page_in_slice=*/2,
          [](uint8_t* page) {
            const uint32_t bytes = engine::PageFile::PayloadBytes(page) + 8;
            for (int b = 0; b < 4; ++b) {
              page[12 + b] = static_cast<uint8_t>(bytes >> (8 * b));
            }
          },
          /*reseal=*/true);
  ExpectQueriesFail(StatusCode::kInternal);
}

}  // namespace
}  // namespace ebi
