#include "obs/workload_recorder.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace ebi {
namespace obs {
namespace {

Counter* RecordsCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetCounter(kMetricWorkloadRecords);
  return counter;
}

Counter* RotationsCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetCounter(kMetricWorkloadRotations);
  return counter;
}

/// `path` -> `path.1` -> ... shifted file name for rotation generation n.
std::string GenerationPath(const std::string& path, size_t n) {
  if (n == 0) {
    return path;
  }
  return path + "." + std::to_string(n);
}

}  // namespace

WorkloadRecorder::WorkloadRecorder(std::string path,
                                   const WorkloadRecorderOptions& options)
    : path_(std::move(path)),
      options_(options),
      start_(std::chrono::steady_clock::now()) {}

WorkloadRecorder::~WorkloadRecorder() {
  const MutexLock lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Status WorkloadRecorder::EnsureOpenLocked() {
  if (file_ != nullptr) {
    return Status::OK();
  }
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::Internal("cannot open workload log " + path_);
  }
  // Appending to a pre-existing file: count its bytes toward rotation.
  if (std::fseek(file_, 0, SEEK_END) == 0) {
    const long at = std::ftell(file_);
    file_bytes_ = at > 0 ? static_cast<size_t>(at) : 0;
  }
  return Status::OK();
}

Status WorkloadRecorder::RotateLocked() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  // Shift path.(n-1) -> path.n from the oldest down, dropping the one
  // past max_files; then the live file becomes path.1.
  const size_t generations = std::max<size_t>(2, options_.max_files);
  std::remove(GenerationPath(path_, generations - 1).c_str());
  for (size_t n = generations - 1; n >= 1; --n) {
    std::rename(GenerationPath(path_, n - 1).c_str(),
                GenerationPath(path_, n).c_str());
  }
  rotations_ += 1;
  RotationsCounter()->Increment();
  file_bytes_ = 0;
  return EnsureOpenLocked();
}

Status WorkloadRecorder::WriteLineLocked(const std::string& line) {
  EBI_RETURN_IF_ERROR(EnsureOpenLocked());
  if (options_.rotate_bytes > 0 && file_bytes_ > 0 &&
      file_bytes_ + line.size() > options_.rotate_bytes) {
    EBI_RETURN_IF_ERROR(RotateLocked());
  }
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    return Status::Internal("short write to workload log " + path_);
  }
  file_bytes_ += line.size();
  return Status::OK();
}

Status WorkloadRecorder::Append(RequestRecord record) {
  // Claim a sequence number under the lock, then serialize outside it
  // so concurrent writers only contend on the fwrite, not on building
  // the JSON line.
  {
    const MutexLock lock(mu_);
    record.seq = records_;
    records_ += 1;
  }
  record.ts_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start_)
          .count();
  for (WorkloadPredicate& pred : record.predicates) {
    if (pred.literals.size() > kLiteralCap) {
      pred.literals.resize(kLiteralCap);
    }
  }
  record.root.reset();
  std::string line = RequestRecordJson(record);
  line += '\n';

  // Turnstile: a writer that serialized faster than a predecessor waits
  // for its turn, so lines land in seq order and readers never see an
  // inversion. The wait only triggers under a genuine photo finish; the
  // turn must always advance, even when the write fails, or every later
  // writer would deadlock.
  MutexLock lock(mu_);
  while (next_write_ != record.seq) {
    turn_cv_.Wait(lock);
  }
  const Status status = WriteLineLocked(line);
  next_write_ += 1;
  turn_cv_.NotifyAll();
  if (status.ok()) {
    RecordsCounter()->Increment();
  }
  return status;
}

Status WorkloadRecorder::Flush() {
  const MutexLock lock(mu_);
  if (file_ != nullptr && std::fflush(file_) != 0) {
    return Status::Internal("cannot flush workload log " + path_);
  }
  return Status::OK();
}

uint64_t WorkloadRecorder::RecordsWritten() const {
  const MutexLock lock(mu_);
  return records_;
}

uint64_t WorkloadRecorder::Rotations() const {
  const MutexLock lock(mu_);
  return rotations_;
}

Result<WorkloadLogRead> ReadWorkloadLog(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("workload log " + path + " not found");
  }
  WorkloadLogRead out;
  std::string line;
  char buf[4096];
  bool saw_newline = true;
  auto consume = [&out](const std::string& text, bool complete) {
    if (text.empty()) {
      return;
    }
    if (!complete) {
      // Truncated tail (crash mid-write): count, don't parse.
      out.skipped += 1;
      return;
    }
    Result<RequestRecord> record = ParseRequestRecord(text);
    if (record.ok()) {
      out.records.push_back(std::move(record).value());
    } else {
      out.skipped += 1;
    }
  };
  while (std::fgets(buf, sizeof(buf), file) != nullptr) {
    const size_t len = std::strlen(buf);
    line.append(buf, len);
    saw_newline = len > 0 && buf[len - 1] == '\n';
    if (saw_newline) {
      line.pop_back();
      consume(line, /*complete=*/true);
      line.clear();
    }
  }
  std::fclose(file);
  // A final line without a newline is a truncation artifact.
  consume(line, /*complete=*/false);
  return out;
}

Result<WorkloadLogRead> ReadWorkloadLogSet(const std::string& path,
                                           size_t max_files) {
  WorkloadLogRead out;
  const size_t generations = std::max<size_t>(1, max_files);
  for (size_t n = generations; n-- > 0;) {
    Result<WorkloadLogRead> one = ReadWorkloadLog(GenerationPath(path, n));
    if (!one.ok()) {
      continue;  // Missing generation: fine.
    }
    WorkloadLogRead& got = one.value();
    out.skipped += got.skipped;
    std::move(got.records.begin(), got.records.end(),
              std::back_inserter(out.records));
  }
  return out;
}

}  // namespace obs
}  // namespace ebi
