#include "storage/engine/page_file.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include "storage/engine/crc32.h"

// The page file is the raw-I/O floor of the storage engine: positioned
// POSIX reads and writes on one descriptor, and fsync for Sync().
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace ebi {
namespace engine {

namespace {

/// Little-endian field codec for the fixed 24-byte page header.
void PutU32(uint8_t* at, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    at[i] = static_cast<uint8_t>((v >> (8 * i)) & 0xFF);
  }
}

uint32_t GetU32(const uint8_t* at) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(at[i]) << (8 * i);
  }
  return v;
}

/// preads until `bytes` arrived, the file ended or an error other than
/// EINTR; returns the bytes read, -1 on error.
ssize_t ReadFully(int fd, uint8_t* buf, size_t bytes, uint64_t offset) {
  size_t done = 0;
  while (done < bytes) {
    const ssize_t got = ::pread(fd, buf + done, bytes - done,
                                static_cast<off_t>(offset + done));
    if (got < 0 && errno == EINTR) {
      continue;
    }
    if (got < 0) {
      return -1;
    }
    if (got == 0) {
      break;
    }
    done += static_cast<size_t>(got);
  }
  return static_cast<ssize_t>(done);
}

/// pwrites all `bytes`, retrying on EINTR and short writes.
bool WriteFully(int fd, const uint8_t* buf, size_t bytes, uint64_t offset) {
  size_t done = 0;
  while (done < bytes) {
    const ssize_t put = ::pwrite(fd, buf + done, bytes - done,
                                 static_cast<off_t>(offset + done));
    if (put < 0 && errno == EINTR) {
      continue;
    }
    if (put <= 0) {
      return false;
    }
    done += static_cast<size_t>(put);
  }
  return true;
}

}  // namespace

Result<PageFile> PageFile::Open(const std::string& path,
                                const PageFileOptions& options) {
  if (options.page_size <= kHeaderBytes) {
    return Status::InvalidArgument(
        "PageFile: page_size " + std::to_string(options.page_size) +
        " does not fit the " + std::to_string(kHeaderBytes) +
        "-byte page header");
  }
  PageFile file;
  file.path_ = path;
  file.options_ = options;
  // Recovery of a file that never existed starts empty, hence O_CREAT in
  // both modes.
  const int flags =
      O_RDWR | O_CREAT | O_CLOEXEC | (options.truncate ? O_TRUNC : 0);
  file.fd_ = ::open(path.c_str(), flags, 0644);
  if (file.fd_ < 0) {
    return Status::Internal("PageFile: cannot open " + path);
  }
  if (!options.truncate) {
    struct stat st {};
    if (::fstat(file.fd_, &st) != 0) {
      return Status::Internal("PageFile: fstat failed on " + path);
    }
    // A torn final page (crash mid-write) rounds down: the partial page
    // is unreachable and will be reused by the next Allocate. The file
    // is private to this factory until returned; the page count is
    // still set under its mutex so the capability analysis can verify
    // every access uniformly.
    const MutexLock lock(*file.mu_);
    file.next_page_ = static_cast<uint32_t>(
        static_cast<size_t>(st.st_size) / options.page_size);
  }
  return file;
}

// Moves transfer the mutex along with the descriptor, so they cannot lock
// it through the analysis; by contract they only run before the file is
// shared (factory return, engine construction).
PageFile::PageFile(PageFile&& other) noexcept { *this = std::move(other); }

PageFile& PageFile::operator=(PageFile&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      ::close(fd_);
    }
    path_ = std::move(other.path_);
    options_ = other.options_;
    mu_ = std::move(other.mu_);
    fd_ = other.fd_;
    other.fd_ = -1;
    next_page_ = other.next_page_;
    pages_written_ = other.pages_written_;
  }
  return *this;
}

PageFile::~PageFile() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

uint32_t PageFile::NumPages() const {
  const MutexLock lock(*mu_);
  return next_page_;
}

uint64_t PageFile::PagesWritten() const {
  const MutexLock lock(*mu_);
  return pages_written_;
}

uint32_t PageFile::Allocate(uint32_t count) {
  const MutexLock lock(*mu_);
  const uint32_t first = next_page_;
  next_page_ += count;
  return first;
}

uint32_t PageFile::PayloadBytes(const uint8_t* page) {
  return GetU32(page + 12);
}

uint32_t PageFile::SliceTag(const uint8_t* page) { return GetU32(page + 8); }

Status PageFile::WritePage(uint32_t page_no, uint32_t slice,
                           const uint8_t* data, size_t bytes) {
  if (bytes > PayloadCapacity()) {
    return Status::InvalidArgument(
        "PageFile: payload of " + std::to_string(bytes) +
        " bytes exceeds page capacity " +
        std::to_string(PayloadCapacity()));
  }
  std::vector<uint8_t> page(options_.page_size);
  if (bytes > 0) {
    std::memcpy(page.data() + kHeaderBytes, data, bytes);
  }
  return WritePageInPlace(page_no, slice, page.data(), bytes);
}

Status PageFile::WritePageInPlace(uint32_t page_no, uint32_t slice,
                                  uint8_t* page, size_t bytes) {
  if (bytes > PayloadCapacity()) {
    return Status::InvalidArgument(
        "PageFile: payload of " + std::to_string(bytes) +
        " bytes exceeds page capacity " +
        std::to_string(PayloadCapacity()));
  }
  uint8_t* payload = page + kHeaderBytes;
  PutU32(page, kPageMagic);
  PutU32(page + 4, page_no);
  PutU32(page + 8, slice);
  PutU32(page + 12, static_cast<uint32_t>(bytes));
  PutU32(page + 16, Crc32(payload, bytes));
  PutU32(page + 20, 0);  // Reserved.
  std::memset(payload + bytes, 0, PayloadCapacity() - bytes);
  bool torn = false;
  {
    const MutexLock lock(*mu_);
    ++pages_written_;
    torn = options_.fail_after_page_writes > 0 &&
           pages_written_ >= options_.fail_after_page_writes;
  }
  const uint64_t offset =
      static_cast<uint64_t>(page_no) * options_.page_size;
  if (torn) {
    // Fault injection: persist a torn page — the header and half the
    // payload — exactly what a crash mid-write leaves behind. The
    // checksum then fails on the next read, which is the property the
    // recovery tests assert.
    if (!WriteFully(fd_, page, kHeaderBytes + bytes / 2, offset)) {
      return Status::Internal("PageFile: torn write failed");
    }
    return Status::Internal(
        "PageFile: fault injection tore the write of page " +
        std::to_string(page_no));
  }
  if (!WriteFully(fd_, page, options_.page_size, offset)) {
    return Status::Internal("PageFile: write of page " +
                            std::to_string(page_no) + " failed");
  }
  return Status::OK();
}

Status PageFile::ReadPage(uint32_t page_no, uint8_t* page) {
  {
    const MutexLock lock(*mu_);
    if (page_no >= next_page_) {
      return Status::OutOfRange("PageFile: page " + std::to_string(page_no) +
                                " of " + std::to_string(next_page_));
    }
  }
  const uint64_t offset =
      static_cast<uint64_t>(page_no) * options_.page_size;
  const ssize_t read = ReadFully(fd_, page, options_.page_size, offset);
  if (read < 0) {
    return Status::Internal("PageFile: read of page " +
                            std::to_string(page_no) + " failed");
  }
  const size_t got = static_cast<size_t>(read);
  if (got < kHeaderBytes) {
    return Status::Internal("PageFile: short read of page " +
                            std::to_string(page_no) + " (" +
                            std::to_string(got) + " bytes)");
  }
  if (GetU32(page) != kPageMagic) {
    return Status::Internal("PageFile: bad magic on page " +
                            std::to_string(page_no));
  }
  if (GetU32(page + 4) != page_no) {
    return Status::Internal(
        "PageFile: page " + std::to_string(page_no) +
        " self-identifies as " + std::to_string(GetU32(page + 4)) +
        " (misdirected write)");
  }
  const uint32_t payload_bytes = PayloadBytes(page);
  if (payload_bytes > PayloadCapacity() ||
      kHeaderBytes + payload_bytes > got) {
    return Status::Internal("PageFile: page " + std::to_string(page_no) +
                            " declares " + std::to_string(payload_bytes) +
                            " payload bytes beyond the page (torn write)");
  }
  if (GetU32(page + 16) != Crc32(page + kHeaderBytes, payload_bytes)) {
    return Status::Internal("PageFile: checksum mismatch on page " +
                            std::to_string(page_no) +
                            " (torn or corrupt write)");
  }
  return Status::OK();
}

Status PageFile::ReadPage(uint32_t page_no, std::vector<uint8_t>* out,
                          uint32_t* slice) {
  std::vector<uint8_t> page(options_.page_size);
  EBI_RETURN_IF_ERROR(ReadPage(page_no, page.data()));
  if (slice != nullptr) {
    *slice = SliceTag(page.data());
  }
  const auto payload = page.begin() + kHeaderBytes;
  out->assign(payload, payload + PayloadBytes(page.data()));
  return Status::OK();
}

Status PageFile::Sync() {
  if (::fsync(fd_) != 0) {
    return Status::Internal("PageFile: fsync failed on " + path_);
  }
  return Status::OK();
}

}  // namespace engine
}  // namespace ebi
