#ifndef EBI_OBS_WORKLOAD_RECORDER_H_
#define EBI_OBS_WORKLOAD_RECORDER_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/request_record.h"
#include "util/status.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace ebi {
namespace obs {

struct WorkloadRecorderOptions {
  /// Rotate when the current log file exceeds this many bytes. 0 never
  /// rotates.
  size_t rotate_bytes = 4u << 20;
  /// Generations kept: the live file plus max_files-1 rotated ones
  /// (path.1 newest rotation .. path.<max_files-1> oldest).
  size_t max_files = 4;
};

/// Append-only JSONL workload log with size-based rotation: one
/// RequestRecordJson line per ok request, the data source for
/// reencode_advisor and the (future) online encoding optimizer (ROADMAP
/// item 5); `ebi_workload` summarizes it offline.
///
/// Thread-safe: Append serializes outside the lock and holds the
/// recorder mutex only for the buffered fwrite (and the rare rotation),
/// so concurrent serve workers contend for microseconds, not
/// serialization time. A seq-ordered turnstile keeps concurrent
/// appenders' lines in claim order on disk, so readers never see a
/// sequence inversion. Writes are buffered; Flush()/destructor drain.
class WorkloadRecorder {
 public:
  /// Integer literals kept per predicate; the fingerprint always covers
  /// the full set.
  static constexpr size_t kLiteralCap = 16;

  explicit WorkloadRecorder(
      std::string path,
      const WorkloadRecorderOptions& options = WorkloadRecorderOptions());
  ~WorkloadRecorder();

  WorkloadRecorder(const WorkloadRecorder&) = delete;
  WorkloadRecorder& operator=(const WorkloadRecorder&) = delete;

  /// Stamps seq/ts_ms, caps literals at kLiteralCap, drops the span tree
  /// (the log carries no traces; the rings do) and appends one line.
  /// Opens the file lazily on first append. Counts written lines and
  /// rotations into the global metrics registry.
  Status Append(RequestRecord record);

  Status Flush();

  uint64_t RecordsWritten() const;
  uint64_t Rotations() const;
  const std::string& path() const { return path_; }
  const WorkloadRecorderOptions& options() const { return options_; }

 private:
  Status EnsureOpenLocked() EBI_REQUIRES(mu_);
  Status RotateLocked() EBI_REQUIRES(mu_);
  /// Open-if-needed, rotate-if-due, write one line. Never early-returns
  /// past the caller's turnstile bookkeeping.
  Status WriteLineLocked(const std::string& line) EBI_REQUIRES(mu_);

  const std::string path_;
  const WorkloadRecorderOptions options_;
  const std::chrono::steady_clock::time_point start_;

  mutable Mutex mu_{lock_rank::kWorkloadRecorder, "WorkloadRecorder::mu_"};
  /// Signals turn advancement to writers waiting in seq order.
  CondVar turn_cv_;
  /// The seq whose line is written next (== lines on disk so far).
  uint64_t next_write_ EBI_GUARDED_BY(mu_) = 0;
  std::FILE* file_ EBI_GUARDED_BY(mu_) = nullptr;
  size_t file_bytes_ EBI_GUARDED_BY(mu_) = 0;
  uint64_t records_ EBI_GUARDED_BY(mu_) = 0;
  uint64_t rotations_ EBI_GUARDED_BY(mu_) = 0;
};

/// Result of reading one log file (or a rotated set).
struct WorkloadLogRead {
  std::vector<RequestRecord> records;
  /// Lines skipped: truncated tails (a crash or rotation mid-line),
  /// malformed JSON, unknown schema versions.
  size_t skipped = 0;
};

/// Reads one JSONL log file, oldest line first. Damaged lines are
/// skipped and counted, never fatal — a truncated final line is the
/// normal crash/rotation artifact. NotFound only when the file is
/// missing entirely.
Result<WorkloadLogRead> ReadWorkloadLog(const std::string& path);

/// Reads a rotated set oldest-first: path.<max_files-1> .. path.1, then
/// the live file. Missing generations are skipped silently.
Result<WorkloadLogRead> ReadWorkloadLogSet(const std::string& path,
                                           size_t max_files);

}  // namespace obs
}  // namespace ebi

#endif  // EBI_OBS_WORKLOAD_RECORDER_H_
