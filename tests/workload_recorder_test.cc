#include "obs/workload_recorder.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "obs/metrics.h"

namespace ebi {
namespace obs {
namespace {

std::string TempPath(const std::string& tag) {
  return std::string(::testing::TempDir()) + "/ebi_workload_" + tag +
         ".jsonl";
}

void RemoveSet(const std::string& path, size_t generations) {
  std::remove(path.c_str());
  for (size_t g = 1; g < generations; ++g) {
    std::remove((path + "." + std::to_string(g)).c_str());
  }
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  std::fclose(f);
  return true;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(content.data(), 1, content.size(), f),
            content.size());
  std::fclose(f);
}

RequestRecord SampleRecord() {
  RequestRecord record;
  record.epoch = 3;
  record.rows_selected = 42;
  record.rows_total = 1000;
  record.queue_ms = 0.5;
  record.pin_ms = 0.25;
  record.plan_ms = 0.125;
  record.execute_ms = 1.5;
  record.total_ms = 2.375;
  record.vectors = 7;
  record.pages = 2;
  record.bytes = 16384;
  record.kernel = "scalar";

  WorkloadPredicate in;
  in.column = "region";
  in.op = "in";
  // High bit set on purpose: fingerprints round-trip as hex strings,
  // not JSON doubles, so no precision is lost past 2^53.
  in.fingerprint = 0xdeadbeefcafebabeULL;
  in.rows = 250;
  in.literals = {-4, 2, 9};
  record.predicates.push_back(in);

  WorkloadPredicate range;
  range.column = "price";
  range.op = "range";
  range.fingerprint = 0x0123456789abcdefULL;
  range.rows = 610;
  range.lo = -100;
  range.hi = 100;
  range.has_range = true;
  record.predicates.push_back(range);
  return record;
}

// --- Serialization round-trip ----------------------------------------------

TEST(WorkloadRecordTest, JsonRoundTrip) {
  RequestRecord record = SampleRecord();
  record.seq = 11;
  record.ts_ms = 123.5;
  const std::string line = RequestRecordJson(record);
  const Result<RequestRecord> parsed = ParseRequestRecord(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const RequestRecord& got = parsed.value();
  EXPECT_EQ(got.seq, 11u);
  EXPECT_DOUBLE_EQ(got.ts_ms, 123.5);
  EXPECT_EQ(got.epoch, 3u);
  EXPECT_EQ(got.rows_selected, 42u);
  EXPECT_EQ(got.rows_total, 1000u);
  EXPECT_DOUBLE_EQ(got.Selectivity(), 0.042);
  EXPECT_DOUBLE_EQ(got.queue_ms, 0.5);
  EXPECT_DOUBLE_EQ(got.pin_ms.value(), 0.25);
  EXPECT_DOUBLE_EQ(got.plan_ms.value(), 0.125);
  EXPECT_DOUBLE_EQ(got.execute_ms.value(), 1.5);
  EXPECT_DOUBLE_EQ(got.total_ms, 2.375);
  EXPECT_EQ(got.vectors, 7u);
  EXPECT_EQ(got.pages, 2u);
  EXPECT_EQ(got.bytes, 16384u);
  EXPECT_EQ(got.kernel, "scalar");
  ASSERT_EQ(got.predicates.size(), 2u);
  EXPECT_EQ(got.predicates[0].column, "region");
  EXPECT_EQ(got.predicates[0].op, "in");
  EXPECT_EQ(got.predicates[0].fingerprint, 0xdeadbeefcafebabeULL);
  EXPECT_EQ(got.predicates[0].rows, 250u);
  EXPECT_EQ(got.predicates[0].literals, (std::vector<int64_t>{-4, 2, 9}));
  EXPECT_FALSE(got.predicates[0].has_range);
  EXPECT_EQ(got.predicates[1].column, "price");
  EXPECT_EQ(got.predicates[1].fingerprint, 0x0123456789abcdefULL);
  EXPECT_TRUE(got.predicates[1].has_range);
  EXPECT_EQ(got.predicates[1].lo, -100);
  EXPECT_EQ(got.predicates[1].hi, 100);
  // An ok, fast, untraced record carries none of the tail fields.
  EXPECT_EQ(got.status, StatusCode::kOk);
  EXPECT_FALSE(got.slow);
  EXPECT_TRUE(got.query.empty());
  EXPECT_FALSE(got.root.has_value());
}

TEST(WorkloadRecordTest, OkFastUntracedLineIsTheV1Line) {
  // Golden v1 lines: the line of an ok, fast, untraced request must not
  // change, so logs already written and the tools reading them stay
  // byte-compatible.
  RequestRecord record = SampleRecord();
  record.seq = 11;
  record.ts_ms = 123.5;
  record.pin_ms = 0.0123456789012;
  WorkloadPredicate isnull;
  isnull.column = "na\"me";
  isnull.op = "isnull";
  isnull.fingerprint = 1;
  record.predicates.push_back(isnull);
  EXPECT_EQ(RequestRecordJson(record),
            "{\"v\":1,\"seq\":11,\"ts\":123.5,\"epoch\":3,\"rows\":42,"
            "\"total\":1000,\"sel\":0.042,\"queue\":0.5,"
            "\"pin\":0.0123456789,\"plan\":0.125,\"exec\":1.5,"
            "\"ms\":2.375,\"vec\":7,\"pages\":2,\"bytes\":16384,"
            "\"kernel\":\"scalar\",\"preds\":["
            "{\"col\":\"region\",\"op\":\"in\",\"fp\":\"deadbeefcafebabe\","
            "\"rows\":250,\"lits\":[-4,2,9]},"
            "{\"col\":\"price\",\"op\":\"range\",\"fp\":\"0123456789abcdef\","
            "\"rows\":610,\"lo\":-100,\"hi\":100},"
            "{\"col\":\"na\\\"me\",\"op\":\"isnull\","
            "\"fp\":\"0000000000000001\",\"rows\":0}]}");

  RequestRecord zero;
  zero.pin_ms = 0.0;
  zero.plan_ms = 0.0;
  zero.execute_ms = 0.0;
  EXPECT_EQ(RequestRecordJson(zero),
            "{\"v\":1,\"seq\":0,\"ts\":0,\"epoch\":0,\"rows\":0,"
            "\"total\":0,\"sel\":0,\"queue\":0,\"pin\":0,\"plan\":0,"
            "\"exec\":0,\"ms\":0,\"vec\":0,\"pages\":0,\"bytes\":0,"
            "\"kernel\":\"\",\"preds\":[]}");
}

TEST(WorkloadRecordTest, TailFieldsAppearOnlyWhenSet) {
  RequestRecord record = SampleRecord();
  record.status = StatusCode::kDeadlineExceeded;
  record.slow = true;
  record.query = "region IN {-4, 2, 9}";
  record.pin_ms.reset();
  record.plan_ms.reset();
  record.execute_ms.reset();
  TraceSpan root;
  root.name = "serve.request";
  record.root = root;
  const std::string line = RequestRecordJson(record);
  // Stages the request never reached are left out, not reported as 0.
  EXPECT_EQ(line.find("\"pin\""), std::string::npos) << line;
  EXPECT_EQ(line.find("\"exec\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"status\":\"DeadlineExceeded\",\"slow\":true,"
                      "\"query\":\"region IN {-4, 2, 9}\","
                      "\"trace\":{\"name\":\"serve.request\""),
            std::string::npos)
      << line;

  const Result<RequestRecord> parsed = ParseRequestRecord(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value().slow);
  EXPECT_EQ(parsed.value().query, "region IN {-4, 2, 9}");
  EXPECT_FALSE(parsed.value().pin_ms.has_value());
  EXPECT_FALSE(parsed.value().execute_ms.has_value());
  // The log holds ok requests without span trees: neither is read back.
  EXPECT_EQ(parsed.value().status, StatusCode::kOk);
  EXPECT_FALSE(parsed.value().root.has_value());
}

TEST(WorkloadRecordTest, IntegersRoundTripExactly) {
  // Past 2^53 a double cannot hold every integer: the reader parses
  // integer fields from their digits, never through a double.
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  RequestRecord record = SampleRecord();
  record.seq = static_cast<uint64_t>(kTwo53) + 1;
  record.bytes = std::numeric_limits<uint64_t>::max();
  record.predicates[0].literals = {kMin, -kMax, -(kTwo53 + 1), kTwo53 + 1,
                                   kMax};
  record.predicates[1].lo = kMin;
  record.predicates[1].hi = kMax;
  const std::string line = RequestRecordJson(record);
  EXPECT_NE(line.find("9007199254740993"), std::string::npos) << line;
  const Result<RequestRecord> parsed = ParseRequestRecord(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().seq, static_cast<uint64_t>(kTwo53) + 1);
  EXPECT_EQ(parsed.value().bytes, std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(parsed.value().predicates[0].literals,
            record.predicates[0].literals);
  EXPECT_EQ(parsed.value().predicates[1].lo, kMin);
  EXPECT_EQ(parsed.value().predicates[1].hi, kMax);
}

TEST(WorkloadRecordTest, RejectsNonIntegralAndOutOfRangeIntegers) {
  const std::string good = RequestRecordJson(SampleRecord());
  auto with = [&good](const std::string& from, const std::string& to) {
    std::string line = good;
    const size_t at = line.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return line.replace(at, from.size(), to);
  };
  const std::string bad_lines[] = {
      with("\"seq\":0", "\"seq\":1e30"),
      with("\"seq\":0", "\"seq\":1.5"),
      with("\"seq\":0", "\"seq\":-1"),
      with("\"seq\":0", "\"seq\":18446744073709551616"),
      with("\"seq\":0", "\"seq\":\"7\""),
      with("\"lits\":[-4,", "\"lits\":[1e300,"),
      with("\"lits\":[-4,", "\"lits\":[9223372036854775808,"),
      with("\"lo\":-100", "\"lo\":-9223372036854775809"),
      with("\"v\":1", "\"v\":1.0"),
  };
  for (const std::string& line : bad_lines) {
    EXPECT_FALSE(ParseRequestRecord(line).ok()) << line;
  }

  // The log reader skips such a line and counts it.
  const std::string path = TempPath("bad_integers");
  RemoveSet(path, 4);
  WriteFile(path, good + "\n" + bad_lines[5] + "\n" + good + "\n");
  const Result<WorkloadLogRead> read = ReadWorkloadLog(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().records.size(), 2u);
  EXPECT_EQ(read.value().skipped, 1u);
  RemoveSet(path, 4);
}

TEST(WorkloadRecordTest, FingerprintSerializesAsHex) {
  RequestRecord record = SampleRecord();
  const std::string line = RequestRecordJson(record);
  EXPECT_NE(line.find("\"fp\":\"deadbeefcafebabe\""), std::string::npos)
      << line;
}

TEST(WorkloadRecordTest, RejectsUnknownVersionAndGarbage) {
  RequestRecord record = SampleRecord();
  std::string line = RequestRecordJson(record);
  // The version is the first field; bump it and the parser must refuse.
  const size_t at = line.find("\"v\":1");
  ASSERT_NE(at, std::string::npos);
  line.replace(at, 5, "\"v\":9");
  EXPECT_FALSE(ParseRequestRecord(line).ok());
  EXPECT_FALSE(ParseRequestRecord("not json at all").ok());
  EXPECT_FALSE(ParseRequestRecord("{\"seq\":0}").ok());
  EXPECT_FALSE(ParseRequestRecord("").ok());
}

// --- Recorder: append, read back -------------------------------------------

TEST(WorkloadRecorderTest, AppendsAndReadsBack) {
  const std::string path = TempPath("append");
  RemoveSet(path, 4);
  {
    WorkloadRecorder recorder(path);
    for (int i = 0; i < 5; ++i) {
      RequestRecord record = SampleRecord();
      record.rows_selected = static_cast<uint64_t>(i);
      ASSERT_TRUE(recorder.Append(std::move(record)).ok());
    }
    EXPECT_EQ(recorder.RecordsWritten(), 5u);
    EXPECT_EQ(recorder.Rotations(), 0u);
    ASSERT_TRUE(recorder.Flush().ok());
  }
  const Result<WorkloadLogRead> read = ReadWorkloadLog(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().skipped, 0u);
  ASSERT_EQ(read.value().records.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    // The recorder stamps seq itself, in append order.
    EXPECT_EQ(read.value().records[i].seq, i);
    EXPECT_EQ(read.value().records[i].rows_selected, i);
    EXPECT_EQ(read.value().records[i].predicates.size(), 2u);
  }
  RemoveSet(path, 4);
}

TEST(WorkloadRecorderTest, MissingFileIsNotFound) {
  const Result<WorkloadLogRead> read =
      ReadWorkloadLog(TempPath("never_written"));
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(WorkloadRecorderTest, CapsStoredLiteralsAndDropsTraces) {
  const std::string path = TempPath("litcap");
  RemoveSet(path, 4);
  RequestRecord record = SampleRecord();
  std::vector<int64_t> literals;
  for (int64_t v = 0; v < 20; ++v) {
    literals.push_back(v);
  }
  record.predicates[0].literals = literals;
  record.root = TraceSpan();
  record.root->name = "serve.request";
  {
    WorkloadRecorder recorder(path);
    ASSERT_TRUE(recorder.Append(record).ok());
    ASSERT_TRUE(recorder.Flush().ok());
  }
  const Result<WorkloadLogRead> read = ReadWorkloadLog(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.value().records.size(), 1u);
  // The IN-list had 20 literals; only kLiteralCap survive on disk. The
  // fingerprint still covers the full set.
  literals.resize(WorkloadRecorder::kLiteralCap);
  EXPECT_EQ(read.value().records[0].predicates[0].literals, literals);
  EXPECT_EQ(read.value().records[0].predicates[0].fingerprint,
            0xdeadbeefcafebabeULL);
  // The span tree stayed out of the log.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  const size_t n = std::fread(buf, 1, sizeof(buf), f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, n).find("\"trace\""), std::string::npos);
  RemoveSet(path, 4);
}

// --- Rotation ---------------------------------------------------------------

TEST(WorkloadRecorderTest, RotatesAndKeepsBoundedGenerations) {
  const std::string path = TempPath("rotate");
  RemoveSet(path, 8);
  WorkloadRecorderOptions options;
  options.rotate_bytes = 512;  // a handful of records per generation
  options.max_files = 3;
  uint64_t written = 0;
  {
    WorkloadRecorder recorder(path, options);
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(recorder.Append(SampleRecord()).ok());
    }
    written = recorder.RecordsWritten();
    EXPECT_EQ(written, 40u);
    EXPECT_GT(recorder.Rotations(), 0u);
    ASSERT_TRUE(recorder.Flush().ok());
  }
  EXPECT_TRUE(FileExists(path));
  EXPECT_TRUE(FileExists(path + ".1"));
  EXPECT_TRUE(FileExists(path + ".2"));
  // max_files bounds the set: no generation past .2 may exist.
  EXPECT_FALSE(FileExists(path + ".3"));

  const Result<WorkloadLogRead> set = ReadWorkloadLogSet(path, 3);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_EQ(set.value().skipped, 0u);
  // Rotation dropped the oldest generations, never the newest records.
  ASSERT_FALSE(set.value().records.empty());
  EXPECT_LE(set.value().records.size(), written);
  for (size_t i = 1; i < set.value().records.size(); ++i) {
    EXPECT_LT(set.value().records[i - 1].seq, set.value().records[i].seq);
  }
  EXPECT_EQ(set.value().records.back().seq, written - 1);
  RemoveSet(path, 8);
}

TEST(WorkloadRecorderTest, CountsRecordsAndRotationsIntoTheRegistry) {
  const std::string path = TempPath("counted");
  RemoveSet(path, 3);
  Counter* records =
      MetricsRegistry::Global().GetCounter(kMetricWorkloadRecords);
  Counter* rotations =
      MetricsRegistry::Global().GetCounter(kMetricWorkloadRotations);
  const uint64_t records_before = records->Value();
  const uint64_t rotations_before = rotations->Value();
  WorkloadRecorderOptions options;
  options.rotate_bytes = 512;
  options.max_files = 3;
  {
    WorkloadRecorder recorder(path, options);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(recorder.Append(SampleRecord()).ok());
    }
    EXPECT_GT(recorder.Rotations(), 0u);
    EXPECT_EQ(records->Value() - records_before, recorder.RecordsWritten());
    EXPECT_EQ(rotations->Value() - rotations_before, recorder.Rotations());
  }
  RemoveSet(path, 3);
}

// --- Damage recovery --------------------------------------------------------

TEST(WorkloadRecorderTest, SkipsTruncatedTail) {
  const std::string path = TempPath("truncated");
  RemoveSet(path, 4);
  const std::string good = RequestRecordJson(SampleRecord());
  // A crash mid-write leaves a final line with no newline, cut mid-JSON.
  WriteFile(path, good + "\n" + good.substr(0, good.size() / 2));
  const Result<WorkloadLogRead> read = ReadWorkloadLog(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().records.size(), 1u);
  EXPECT_EQ(read.value().skipped, 1u);
  RemoveSet(path, 4);
}

TEST(WorkloadRecorderTest, SkipsMalformedAndForeignVersionLines) {
  const std::string path = TempPath("damaged");
  RemoveSet(path, 4);
  const std::string good = RequestRecordJson(SampleRecord());
  std::string future = good;
  const size_t at = future.find("\"v\":1");
  ASSERT_NE(at, std::string::npos);
  future.replace(at, 5, "\"v\":2");
  WriteFile(path,
            good + "\n" + "{garbage\n" + future + "\n" + good + "\n");
  const Result<WorkloadLogRead> read = ReadWorkloadLog(path);
  ASSERT_TRUE(read.ok());
  // Both intact same-version lines survive; the garbage line and the
  // future-version line are counted, not fatal.
  EXPECT_EQ(read.value().records.size(), 2u);
  EXPECT_EQ(read.value().skipped, 2u);
  RemoveSet(path, 4);
}

// --- Concurrency ------------------------------------------------------------

TEST(WorkloadRecorderTest, ConcurrentAppendsAssignUniqueSeqs) {
  // TSan target: appenders serialize on the recorder mutex for the
  // fwrite only; serialization happens outside the lock.
  const std::string path = TempPath("concurrent");
  RemoveSet(path, 4);
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 100;
  {
    WorkloadRecorderOptions options;
    options.rotate_bytes = 0;  // no rotation: every record must survive
    WorkloadRecorder recorder(path, options);
    exec::ThreadPool pool(4);
    pool.ParallelFor(0, kThreads, [&](size_t t) {
      for (size_t i = 0; i < kPerThread; ++i) {
        RequestRecord record = SampleRecord();
        record.epoch = t;
        ASSERT_TRUE(recorder.Append(std::move(record)).ok());
      }
    });
    EXPECT_EQ(recorder.RecordsWritten(), kThreads * kPerThread);
    ASSERT_TRUE(recorder.Flush().ok());
  }
  const Result<WorkloadLogRead> read = ReadWorkloadLog(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().skipped, 0u);
  ASSERT_EQ(read.value().records.size(), kThreads * kPerThread);
  std::set<uint64_t> seqs;
  for (const RequestRecord& record : read.value().records) {
    seqs.insert(record.seq);
  }
  // No torn lines, no duplicated or lost sequence numbers.
  EXPECT_EQ(seqs.size(), kThreads * kPerThread);
  EXPECT_EQ(*seqs.begin(), 0u);
  EXPECT_EQ(*seqs.rbegin(), kThreads * kPerThread - 1);
  RemoveSet(path, 4);
}

}  // namespace
}  // namespace obs
}  // namespace ebi
