#ifndef EBI_STORAGE_ENGINE_PAGE_FILE_H_
#define EBI_STORAGE_ENGINE_PAGE_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace ebi {
namespace engine {

/// Knobs for one page file, fixed at Open.
struct PageFileOptions {
  /// Physical page size in bytes. Must exceed the page-header size; the
  /// paper's cost model (and IoAccountant) assume 4 KB.
  size_t page_size = 4096;
  /// true: create/truncate a fresh file. false: open an existing file for
  /// recovery — the page count is derived from the file length.
  bool truncate = true;
  /// Fault injection (crash-recovery tests): when > 0, the Nth WritePage
  /// call writes a *torn* page — the header plus roughly half the payload
  /// — flushes it to disk and fails with kInternal, simulating a crash
  /// mid-page-write. 0 disables the hook.
  uint64_t fail_after_page_writes = 0;
};

/// A file of fixed-size, checksummed pages — the raw I/O floor of the
/// storage engine (DESIGN.md §12). Everything above it (buffer pool,
/// slice extents) deals in page numbers; this class owns the only
/// open/pread/pwrite/fsync calls on the data path, which the raw-file-io
/// lint rule enforces.
///
/// Page layout: a 24-byte header {magic, page_no, slice, payload_bytes,
/// crc32(payload), reserved} followed by up to page_size - 24 payload
/// bytes (zero-filled past the payload). ReadPage verifies the magic, the
/// self-identifying page number (catches misdirected writes) and the
/// payload checksum (catches torn writes), so a page either reads back
/// exactly as written or fails with a descriptive kInternal — never
/// silently returns garbage.
///
/// Thread-safe. All I/O is pread/pwrite at page_no * page_size on one
/// file descriptor, so there is no shared stream position and no lock is
/// held across I/O: the mutex guards only the page count and the write
/// counter. Concurrent reads and writes of *different* pages are safe;
/// the pages of one file are written only by the buffer pool, which
/// serializes a page's I/O under its own lock. Moving a PageFile is NOT
/// thread-safe; moves happen only before the file is shared (factory
/// returns, engine construction).
class PageFile {
 public:
  static constexpr size_t kHeaderBytes = 24;
  static constexpr uint32_t kPageMagic = 0x45504147;  // "GAPE" LE.

  /// Opens (or creates) `path` per the options. page_size must leave
  /// room for at least one payload byte.
  static Result<PageFile> Open(const std::string& path,
                               const PageFileOptions& options);

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;
  PageFile(PageFile&& other) noexcept;
  /// Opted out of the analysis: the move transfers the mutex itself, so
  /// there is no stable capability to hold across it. Moves are only
  /// legal before the file is shared between threads.
  PageFile& operator=(PageFile&& other) noexcept
      EBI_NO_THREAD_SAFETY_ANALYSIS;
  ~PageFile();

  size_t page_size() const { return options_.page_size; }
  /// Payload bytes one page can carry.
  size_t PayloadCapacity() const {
    return options_.page_size - kHeaderBytes;
  }
  /// Pages allocated so far (the file is exactly this many pages long,
  /// modulo a torn final write).
  uint32_t NumPages() const;
  const std::string& path() const { return path_; }

  /// Reserves `count` fresh pages, returning the first page number.
  uint32_t Allocate(uint32_t count);

  /// Writes `bytes` payload bytes (<= PayloadCapacity) into `page_no`
  /// under a checksummed header tagged with the owning slice.
  [[nodiscard]] Status WritePage(uint32_t page_no, uint32_t slice,
                                 const uint8_t* data, size_t bytes);

  /// WritePage without the copy: `page` is a page_size() buffer whose
  /// payload already sits at page + kHeaderBytes. Stamps the header and
  /// zero-fills past the payload in place, then writes the whole page —
  /// the buffer pool's writeback path.
  [[nodiscard]] Status WritePageInPlace(uint32_t page_no, uint32_t slice,
                                        uint8_t* page, size_t bytes);

  /// Reads page `page_no` whole into `page` (a caller-owned buffer of
  /// page_size() bytes) and validates header + checksum in place. On
  /// success the payload is PayloadBytes(page) bytes at
  /// page + kHeaderBytes.
  [[nodiscard]] Status ReadPage(uint32_t page_no, uint8_t* page);

  /// ReadPage into a temporary page, returning a copy of the payload in
  /// `out` (resized to the stored payload length). When `slice` is
  /// non-null the owning slice tag is returned too.
  [[nodiscard]] Status ReadPage(uint32_t page_no, std::vector<uint8_t>* out,
                                uint32_t* slice = nullptr);

  /// Header fields of a page ReadPage verified.
  static uint32_t PayloadBytes(const uint8_t* page);
  static uint32_t SliceTag(const uint8_t* page);

  /// fsyncs the file descriptor — after Sync returns OK the pages
  /// written so far survive a crash.
  [[nodiscard]] Status Sync();

  /// Pages physically written over the file's lifetime (fault-hook and
  /// test bookkeeping).
  uint64_t PagesWritten() const;

 private:
  PageFile() = default;

  std::string path_
      EBI_UNGUARDED("set once in Open before the file is shared");
  PageFileOptions options_
      EBI_UNGUARDED("set once in Open before the file is shared");
  /// pread/pwrite carry their own offsets, so the descriptor is shared
  /// without a lock.
  int fd_ EBI_UNGUARDED("set once in Open before the file is shared") = -1;
  /// Behind unique_ptr because PageFile is movable and a mutex is not;
  /// the mutex travels with the moved-to object.
  std::unique_ptr<Mutex> mu_ =
      std::make_unique<Mutex>(lock_rank::kPageFile, "PageFile::mu_");
  uint32_t next_page_ EBI_GUARDED_BY(*mu_) = 0;
  uint64_t pages_written_ EBI_GUARDED_BY(*mu_) = 0;
};

}  // namespace engine
}  // namespace ebi

#endif  // EBI_STORAGE_ENGINE_PAGE_FILE_H_
