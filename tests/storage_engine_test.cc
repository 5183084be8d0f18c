#include "storage/engine/storage_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "storage/engine/buffer_pool.h"
#include "storage/engine/page_file.h"
#include "util/random.h"

namespace ebi {
namespace engine {
namespace {

std::string TempPath(const char* tag) {
  return std::string(::testing::TempDir()) + "/ebi_engine_" + tag + ".bin";
}

BitVector RandomBits(size_t n, uint64_t seed, double density = 0.4) {
  Rng rng(seed);
  BitVector v(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(density)) {
      v.Set(i);
    }
  }
  return v;
}

void RemoveFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".map").c_str());
  std::remove((path + ".map.tmp").c_str());
}

// ---------------------------------------------------------------- PageFile

TEST(PageFileTest, WriteReadRoundTrip) {
  const std::string path = TempPath("pf_roundtrip");
  auto file = PageFile::Open(path, PageFileOptions());
  ASSERT_TRUE(file.ok());
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  const uint32_t page = file->Allocate(1);
  ASSERT_TRUE(
      file->WritePage(page, /*slice=*/7, payload.data(), payload.size()).ok());
  std::vector<uint8_t> out;
  uint32_t slice = 0;
  ASSERT_TRUE(file->ReadPage(page, &out, &slice).ok());
  EXPECT_EQ(out, payload);
  EXPECT_EQ(slice, 7u);
  RemoveFiles(path);
}

TEST(PageFileTest, PayloadCapacityIsPageMinusHeader) {
  const std::string path = TempPath("pf_capacity");
  PageFileOptions options;
  options.page_size = 256;
  auto file = PageFile::Open(path, options);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->PayloadCapacity(), 256 - PageFile::kHeaderBytes);
  const std::vector<uint8_t> too_big(file->PayloadCapacity() + 1, 0xAB);
  const uint32_t page = file->Allocate(1);
  EXPECT_FALSE(
      file->WritePage(page, 0, too_big.data(), too_big.size()).ok());
  RemoveFiles(path);
}

TEST(PageFileTest, CorruptPayloadFailsChecksum) {
  const std::string path = TempPath("pf_corrupt");
  {
    auto file = PageFile::Open(path, PageFileOptions());
    ASSERT_TRUE(file.ok());
    const std::vector<uint8_t> payload(100, 0x5A);
    ASSERT_TRUE(
        file->WritePage(file->Allocate(1), 0, payload.data(), payload.size())
            .ok());
    ASSERT_TRUE(file->Sync().ok());
  }
  {
    // Flip one payload byte on disk, past the 24-byte header.
    std::FILE* raw = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(raw, nullptr);
    ASSERT_EQ(std::fseek(raw, PageFile::kHeaderBytes + 10, SEEK_SET), 0);
    std::fputc(0xFF, raw);
    std::fclose(raw);
  }
  PageFileOptions recover;
  recover.truncate = false;
  auto file = PageFile::Open(path, recover);
  ASSERT_TRUE(file.ok());
  std::vector<uint8_t> out;
  const Status status = file->ReadPage(0, &out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("torn or corrupt"), std::string::npos);
  RemoveFiles(path);
}

TEST(PageFileTest, MisdirectedWriteDetected) {
  const std::string path = TempPath("pf_misdirected");
  const size_t kPage = 4096;
  {
    auto file = PageFile::Open(path, PageFileOptions());
    ASSERT_TRUE(file.ok());
    const std::vector<uint8_t> a(50, 0x11);
    const std::vector<uint8_t> b(50, 0x22);
    ASSERT_TRUE(file->WritePage(file->Allocate(1), 0, a.data(), a.size()).ok());
    ASSERT_TRUE(file->WritePage(file->Allocate(1), 0, b.data(), b.size()).ok());
    ASSERT_TRUE(file->Sync().ok());
  }
  {
    // Simulate a misdirected write: page 0's bytes land in page 1's slot.
    // The checksum still holds, but the self-identifying page_no does not.
    std::FILE* raw = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(raw, nullptr);
    std::vector<uint8_t> page0(kPage);
    ASSERT_EQ(std::fread(page0.data(), 1, kPage, raw), kPage);
    ASSERT_EQ(std::fseek(raw, static_cast<long>(kPage), SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(page0.data(), 1, kPage, raw), kPage);
    std::fclose(raw);
  }
  PageFileOptions recover;
  recover.truncate = false;
  auto file = PageFile::Open(path, recover);
  ASSERT_TRUE(file.ok());
  std::vector<uint8_t> out;
  const Status status = file->ReadPage(1, &out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("misdirected"), std::string::npos);
  RemoveFiles(path);
}

TEST(PageFileTest, FaultInjectionTearsTheNthWrite) {
  const std::string path = TempPath("pf_fault");
  PageFileOptions options;
  options.fail_after_page_writes = 2;
  auto file = PageFile::Open(path, options);
  ASSERT_TRUE(file.ok());
  const std::vector<uint8_t> payload(200, 0x3C);
  ASSERT_TRUE(
      file->WritePage(file->Allocate(1), 0, payload.data(), payload.size())
          .ok());
  const uint32_t torn = file->Allocate(1);
  EXPECT_FALSE(
      file->WritePage(torn, 0, payload.data(), payload.size()).ok());
  // The torn page is half-written: reading it back must fail loudly.
  std::vector<uint8_t> out;
  EXPECT_FALSE(file->ReadPage(torn, &out).ok());
  RemoveFiles(path);
}

TEST(PageFileTest, GoldenPageFormatIsUnchanged) {
  // A page with a fixed payload must land on disk byte for byte as the
  // format defines it; the checksum is hard-coded, so a change of CRC
  // polynomial, reflection or seeding (or of the header layout) fails
  // here instead of silently orphaning existing page files.
  const std::string path = TempPath("pf_golden");
  constexpr size_t kPage = 256;
  {
    PageFileOptions options;
    options.page_size = kPage;
    auto file = PageFile::Open(path, options);
    ASSERT_TRUE(file.ok());
    std::vector<uint8_t> payload(100);
    for (size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<uint8_t>(i * 7 + 3);
    }
    file->Allocate(3);
    ASSERT_TRUE(file->WritePage(1, /*slice=*/9, payload.data(),
                                payload.size())
                    .ok());
    // The in-place writer (the pool's writeback path) must produce the
    // same bytes from a buffer whose header and tail hold garbage.
    std::vector<uint8_t> frame(kPage, 0xEE);
    std::copy(payload.begin(), payload.end(),
              frame.begin() + PageFile::kHeaderBytes);
    ASSERT_TRUE(
        file->WritePageInPlace(2, /*slice=*/9, frame.data(), payload.size())
            .ok());
    ASSERT_TRUE(file->Sync().ok());
  }
  std::FILE* raw = std::fopen(path.c_str(), "rb");
  ASSERT_NE(raw, nullptr);
  for (const uint8_t page_no : {uint8_t{1}, uint8_t{2}}) {
    std::vector<uint8_t> page(kPage);
    ASSERT_EQ(std::fseek(raw, static_cast<long>(page_no * kPage), SEEK_SET),
              0);
    ASSERT_EQ(std::fread(page.data(), 1, kPage, raw), kPage);
    const std::vector<uint8_t> header(page.begin(),
                                      page.begin() + PageFile::kHeaderBytes);
    const std::vector<uint8_t> want = {
        0x47, 0x41, 0x50, 0x45,     // magic "GAPE"
        page_no, 0x00, 0x00, 0x00,  // page_no
        0x09, 0x00, 0x00, 0x00,     // slice 9
        0x64, 0x00, 0x00, 0x00,     // payload_bytes 100
        0x09, 0x6B, 0x31, 0xAA,     // crc32(payload) = 0xAA316B09
        0x00, 0x00, 0x00, 0x00,     // reserved
    };
    EXPECT_EQ(header, want);
    for (size_t i = 0; i < 100; ++i) {
      ASSERT_EQ(page[PageFile::kHeaderBytes + i],
                static_cast<uint8_t>(i * 7 + 3));
    }
    for (size_t i = PageFile::kHeaderBytes + 100; i < kPage; ++i) {
      ASSERT_EQ(page[i], 0u) << "page " << int{page_no} << " byte " << i;
    }
  }
  std::fclose(raw);
  RemoveFiles(path);
}

TEST(PageFileTest, ConcurrentReadsBesideAWriter) {
  // pread/pwrite on one descriptor, no lock across I/O: four readers
  // hammer a shared page and a page of their own while a writer rewrites
  // other pages. Every read must verify and return exactly the payload
  // its page holds. Runs under TSan in CI.
  const std::string path = TempPath("pf_concurrent");
  auto file = PageFile::Open(path, PageFileOptions());
  ASSERT_TRUE(file.ok());
  constexpr uint32_t kReaders = 4;
  constexpr uint32_t kWriterPages = 4;
  const auto payload_of = [](uint32_t page, uint32_t round) {
    return std::vector<uint8_t>(200 + page,
                                static_cast<uint8_t>(page * 31 + round));
  };
  file->Allocate(1 + kReaders + kWriterPages);
  for (uint32_t p = 0; p < 1 + kReaders + kWriterPages; ++p) {
    const std::vector<uint8_t> payload = payload_of(p, 0);
    ASSERT_TRUE(file->WritePage(p, p, payload.data(), payload.size()).ok());
  }
  std::atomic<bool> failed{false};
  const auto read_loop = [&](uint32_t r) {
    std::vector<uint8_t> page(file->page_size());
    for (int i = 0; i < 300; ++i) {
      for (const uint32_t p : {uint32_t{0}, 1 + r}) {
        if (!file->ReadPage(p, page.data()).ok() ||
            PageFile::SliceTag(page.data()) != p) {
          failed = true;
          return;
        }
        const std::vector<uint8_t> want = payload_of(p, 0);
        const uint8_t* got = page.data() + PageFile::kHeaderBytes;
        if (PageFile::PayloadBytes(page.data()) != want.size() ||
            !std::equal(want.begin(), want.end(), got)) {
          failed = true;
          return;
        }
      }
    }
  };
  const auto write_loop = [&] {
    for (uint32_t round = 1; round <= 300; ++round) {
      for (uint32_t w = 0; w < kWriterPages; ++w) {
        const uint32_t p = 1 + kReaders + w;
        const std::vector<uint8_t> payload = payload_of(p, round);
        if (!file->WritePage(p, p, payload.data(), payload.size()).ok()) {
          failed = true;
          return;
        }
      }
    }
  };
  exec::ThreadPool workers(kReaders + 1);
  workers.ParallelFor(0, kReaders + 1, [&](size_t t) {
    if (t < kReaders) {
      read_loop(static_cast<uint32_t>(t));
    } else {
      write_loop();
    }
  });
  EXPECT_FALSE(failed);
  EXPECT_EQ(file->PagesWritten(), 1 + kReaders + kWriterPages + 300u * 4u);
  // The writer's last round reads back intact.
  for (uint32_t w = 0; w < kWriterPages; ++w) {
    const uint32_t p = 1 + kReaders + w;
    std::vector<uint8_t> out;
    ASSERT_TRUE(file->ReadPage(p, &out).ok());
    EXPECT_EQ(out, payload_of(p, 300));
  }
  RemoveFiles(path);
}

// -------------------------------------------------------------- BufferPool

TEST(BufferPoolTest, RejectsZeroCapacity) {
  const std::string path = TempPath("bp_zero");
  auto file = PageFile::Open(path, PageFileOptions());
  ASSERT_TRUE(file.ok());
  BufferPoolOptions options;
  options.capacity_pages = 0;
  EXPECT_FALSE(BufferPool::Create(&*file, options).ok());
  RemoveFiles(path);
}

TEST(BufferPoolTest, HitsAndMissesAreCounted) {
  const std::string path = TempPath("bp_counts");
  auto file = PageFile::Open(path, PageFileOptions());
  ASSERT_TRUE(file.ok());
  const std::vector<uint8_t> payload(64, 0x77);
  const uint32_t page = file->Allocate(1);
  ASSERT_TRUE(file->WritePage(page, 0, payload.data(), payload.size()).ok());

  BufferPoolOptions options;
  options.capacity_pages = 4;
  auto pool = BufferPool::Create(&*file, options);
  ASSERT_TRUE(pool.ok());
  std::vector<uint8_t> out(file->PayloadCapacity());
  bool faulted = false;
  auto bytes = (*pool)->CopyPage(page, out.data(), &faulted);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, payload.size());
  EXPECT_TRUE(faulted);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), out.begin()));
  bytes = (*pool)->CopyPage(page, out.data(), &faulted);
  ASSERT_TRUE(bytes.ok());
  EXPECT_FALSE(faulted);
  const BufferPoolStats stats = (*pool)->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  RemoveFiles(path);
}

TEST(BufferPoolTest, LruEvictsColdestPage) {
  const std::string path = TempPath("bp_lru");
  auto file = PageFile::Open(path, PageFileOptions());
  ASSERT_TRUE(file.ok());
  const std::vector<uint8_t> payload(32, 0x01);
  const uint32_t first = file->Allocate(4);
  for (uint32_t p = first; p < first + 4; ++p) {
    ASSERT_TRUE(file->WritePage(p, p, payload.data(), payload.size()).ok());
  }
  BufferPoolOptions options;
  options.capacity_pages = 2;
  auto pool = BufferPool::Create(&*file, options);
  ASSERT_TRUE(pool.ok());

  std::vector<uint8_t> out(file->PayloadCapacity());
  bool faulted = false;
  const auto read = [&](uint32_t page_no) {
    return (*pool)->CopyPage(page_no, out.data(), &faulted).ok();
  };
  ASSERT_TRUE(read(0));
  ASSERT_TRUE(read(1));
  // Touch page 0 so page 1 is the LRU victim.
  ASSERT_TRUE(read(0));
  ASSERT_TRUE(read(2));  // Evicts 1, not 0.
  const uint64_t misses_before = (*pool)->stats().misses;
  ASSERT_TRUE(read(0));  // Still resident.
  EXPECT_FALSE(faulted);
  EXPECT_EQ((*pool)->stats().misses, misses_before);
  EXPECT_EQ((*pool)->stats().evictions, 1u);
  ASSERT_TRUE(read(1));  // Evicted: faults again.
  EXPECT_TRUE(faulted);
  EXPECT_EQ((*pool)->Resident(), 2u);
  RemoveFiles(path);
}

TEST(BufferPoolTest, DirtyFramesWriteBackOnEviction) {
  const std::string path = TempPath("bp_writeback");
  auto file = PageFile::Open(path, PageFileOptions());
  ASSERT_TRUE(file.ok());
  BufferPoolOptions options;
  options.capacity_pages = 1;
  auto pool = BufferPool::Create(&*file, options);
  ASSERT_TRUE(pool.ok());

  file->Allocate(2);
  const std::vector<uint8_t> first(40, 0xAA);
  const std::vector<uint8_t> second(40, 0xBB);
  ASSERT_TRUE((*pool)->WriteThrough(0, 0, first.data(), first.size()).ok());
  // Installing page 1 evicts dirty page 0, which must write back first.
  ASSERT_TRUE((*pool)->WriteThrough(1, 1, second.data(), second.size()).ok());
  EXPECT_EQ((*pool)->stats().writebacks, 1u);
  std::vector<uint8_t> out;
  ASSERT_TRUE(file->ReadPage(0, &out).ok());
  EXPECT_EQ(out, first);
  // Page 1 is still only in its dirty frame until Flush.
  ASSERT_TRUE((*pool)->Flush().ok());
  EXPECT_EQ((*pool)->stats().writebacks, 2u);
  ASSERT_TRUE(file->ReadPage(1, &out).ok());
  EXPECT_EQ(out, second);
  // Reading page 0 back through the pool evicts page 1, now clean: no
  // further writeback.
  std::vector<uint8_t> copy(file->PayloadCapacity());
  bool faulted = false;
  const auto bytes = (*pool)->CopyPage(0, copy.data(), &faulted);
  ASSERT_TRUE(bytes.ok());
  EXPECT_TRUE(faulted);
  EXPECT_EQ(*bytes, first.size());
  EXPECT_TRUE(std::equal(first.begin(), first.end(), copy.begin()));
  EXPECT_EQ((*pool)->stats().writebacks, 2u);
  RemoveFiles(path);
}

// ------------------------------------------------------------ StorageEngine

TEST(StorageEngineTest, PutGetRoundTrip) {
  const std::string path = TempPath("se_roundtrip");
  StorageEngineOptions options;
  options.pool_pages = 4;
  options.remove_on_close = true;
  auto engine = StorageEngine::Open(path, options);
  ASSERT_TRUE(engine.ok());
  const BitVector bits = RandomBits(1 << 15, 42);
  const auto id = (*engine)->PutSlice(bits);
  ASSERT_TRUE(id.ok());
  const auto loaded = (*engine)->GetSlice(*id);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, bits);
}

TEST(StorageEngineTest, MultiPageSliceSurvivesCapOnePool) {
  // A slice larger than the pool must still be readable: GetSlice's
  // reader copies one page at a time out of the pool.
  const std::string path = TempPath("se_cap1");
  StorageEngineOptions options;
  options.pool_pages = 1;
  options.remove_on_close = true;
  auto engine = StorageEngine::Open(path, options);
  ASSERT_TRUE(engine.ok());
  const BitVector bits = RandomBits(1 << 17, 7);  // ~16 KB plain = 5 pages.
  const auto id = (*engine)->PutSlice(bits);
  ASSERT_TRUE(id.ok());
  const auto pages = (*engine)->SlicePages(*id);
  ASSERT_TRUE(pages.ok());
  EXPECT_GT(*pages, 1u);
  const auto loaded = (*engine)->GetSlice(*id);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, bits);
}

TEST(StorageEngineTest, UpdateReusesOrRelocatesExtent) {
  const std::string path = TempPath("se_update");
  StorageEngineOptions options;
  options.pool_pages = 8;
  options.remove_on_close = true;
  auto engine = StorageEngine::Open(path, options);
  ASSERT_TRUE(engine.ok());
  const auto id = (*engine)->PutSlice(RandomBits(4096, 1));
  ASSERT_TRUE(id.ok());
  // Same-size update reuses the extent in place.
  const BitVector replacement = RandomBits(4096, 2);
  ASSERT_TRUE((*engine)->UpdateSlice(*id, replacement).ok());
  auto loaded = (*engine)->GetSlice(*id);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, replacement);
  // A much larger payload relocates to a fresh extent.
  const BitVector grown = RandomBits(1 << 16, 3);
  ASSERT_TRUE((*engine)->UpdateSlice(*id, grown).ok());
  loaded = (*engine)->GetSlice(*id);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, grown);
}

TEST(StorageEngineTest, UnsyncedUpdateNeverTearsACommittedSlice) {
  // A one-page pool evicts each page of an in-place update as soon as
  // the next one is written, so a committed slice's pages would reach
  // disk half new before any Sync. Updates of committed extents must
  // relocate instead: dropped without Sync, the engine recovers the
  // committed slice whole.
  const std::string path = TempPath("se_update_crash");
  RemoveFiles(path);
  const BitVector committed = RandomBits(2 * 4072 * 8 + 4000, 31);
  StorageEngine::SliceId id = 0;
  {
    StorageEngineOptions options;
    options.pool_pages = 1;
    auto engine = StorageEngine::Open(path, options);
    ASSERT_TRUE(engine.ok());
    const auto put = (*engine)->PutSlice(committed);
    ASSERT_TRUE(put.ok());
    id = *put;
    const auto pages = (*engine)->SlicePages(id);
    ASSERT_TRUE(pages.ok());
    ASSERT_EQ(*pages, 3u);
    ASSERT_TRUE((*engine)->Sync().ok());
    const BitVector update = RandomBits(committed.size(), 32);
    ASSERT_TRUE((*engine)->UpdateSlice(id, update).ok());
    const auto loaded = (*engine)->GetSlice(id);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(*loaded, update);
    // Dropped without Sync: a crash after the update.
  }
  {
    StorageEngineOptions options;
    options.pool_pages = 1;
    options.recover = true;
    options.remove_on_close = true;
    auto engine = StorageEngine::Open(path, options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->VerifySlice(id).ok());
    const auto loaded = (*engine)->GetSlice(id);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(*loaded, committed);
  }
}

TEST(StorageEngineTest, SyncThenRecoverRoundTrip) {
  const std::string path = TempPath("se_recover");
  RemoveFiles(path);
  std::vector<BitVector> originals;
  std::vector<StorageEngine::SliceId> ids;
  {
    StorageEngineOptions options;
    options.pool_pages = 4;
    auto engine = StorageEngine::Open(path, options);
    ASSERT_TRUE(engine.ok());
    for (uint64_t i = 0; i < 6; ++i) {
      originals.push_back(RandomBits(3000 + 500 * i, i + 100));
      const auto id = (*engine)->PutSlice(originals.back());
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    ASSERT_TRUE((*engine)->Sync().ok());
  }
  {
    StorageEngineOptions options;
    options.pool_pages = 4;
    options.recover = true;
    options.remove_on_close = true;
    auto engine = StorageEngine::Open(path, options);
    ASSERT_TRUE(engine.ok());
    ASSERT_EQ((*engine)->NumSlices(), originals.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      ASSERT_TRUE((*engine)->VerifySlice(ids[i]).ok());
      const auto loaded = (*engine)->GetSlice(ids[i]);
      ASSERT_TRUE(loaded.ok());
      EXPECT_EQ(*loaded, originals[i]) << "slice " << i;
    }
  }
}

TEST(StorageEngineTest, TornPageWriteIsDetectedAndOldStateRecovers) {
  const std::string path = TempPath("se_torn");
  RemoveFiles(path);
  BitVector committed;
  StorageEngine::SliceId committed_id = 0;
  {
    StorageEngineOptions options;
    options.pool_pages = 2;  // Small pool: evictions force page writes.
    options.fail_after_page_writes = 8;
    auto engine = StorageEngine::Open(path, options);
    ASSERT_TRUE(engine.ok());
    committed = RandomBits(1 << 15, 55);
    const auto id = (*engine)->PutSlice(committed);
    ASSERT_TRUE(id.ok());
    committed_id = *id;
    ASSERT_TRUE((*engine)->Sync().ok());  // Commit point: sidecar written.
    // Keep appending until the injected fault tears a page write. The
    // engine surfaces the error on the write (eviction/flush) that hits it.
    Status failed = Status::OK();
    for (uint64_t i = 0; i < 32 && failed.ok(); ++i) {
      const auto next = (*engine)->PutSlice(RandomBits(1 << 15, i));
      if (!next.ok()) {
        failed = next.status();
        break;
      }
      failed = (*engine)->Sync();
    }
    EXPECT_FALSE(failed.ok()) << "fault hook never fired";
  }
  {
    // Recovery: the last committed sidecar still describes only intact
    // extents; the committed slice reads back bit-identically.
    StorageEngineOptions options;
    options.pool_pages = 2;
    options.recover = true;
    options.remove_on_close = true;
    auto engine = StorageEngine::Open(path, options);
    ASSERT_TRUE(engine.ok());
    ASSERT_GE((*engine)->NumSlices(), 1u);
    const auto loaded = (*engine)->GetSlice(committed_id);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(*loaded, committed);
  }
}

TEST(StorageEngineTest, CrashBeforeMapRenameKeepsPreviousSidecar) {
  const std::string path = TempPath("se_prerename");
  RemoveFiles(path);
  BitVector first = RandomBits(2000, 9);
  {
    StorageEngineOptions options;
    options.pool_pages = 4;
    auto engine = StorageEngine::Open(path, options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->PutSlice(first).ok());
    ASSERT_TRUE((*engine)->Sync().ok());
  }
  {
    // Second generation: add a slice but crash before the sidecar rename.
    StorageEngineOptions options;
    options.pool_pages = 4;
    options.recover = true;
    options.fail_before_map_rename = true;
    auto engine = StorageEngine::Open(path, options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->PutSlice(RandomBits(2000, 10)).ok());
    EXPECT_FALSE((*engine)->Sync().ok());  // Injected pre-rename crash.
  }
  {
    // The old sidecar is untouched: one slice, bit-identical.
    StorageEngineOptions options;
    options.pool_pages = 4;
    options.recover = true;
    options.remove_on_close = true;
    auto engine = StorageEngine::Open(path, options);
    ASSERT_TRUE(engine.ok());
    EXPECT_EQ((*engine)->NumSlices(), 1u);
    const auto loaded = (*engine)->GetSlice(0);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(*loaded, first);
  }
}

TEST(StorageEngineTest, VerifySliceCatchesOnDiskCorruption) {
  const std::string path = TempPath("se_verify");
  RemoveFiles(path);
  StorageEngine::SliceId id = 0;
  {
    StorageEngineOptions options;
    options.pool_pages = 4;
    auto engine = StorageEngine::Open(path, options);
    ASSERT_TRUE(engine.ok());
    const auto put = (*engine)->PutSlice(RandomBits(5000, 77));
    ASSERT_TRUE(put.ok());
    id = *put;
    ASSERT_TRUE((*engine)->VerifySlice(id).ok());
    ASSERT_TRUE((*engine)->Sync().ok());
  }
  {
    std::FILE* raw = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(raw, nullptr);
    ASSERT_EQ(std::fseek(raw, PageFile::kHeaderBytes + 100, SEEK_SET), 0);
    std::fputc(0xEE, raw);
    std::fclose(raw);
  }
  {
    StorageEngineOptions options;
    options.pool_pages = 4;
    options.recover = true;
    options.remove_on_close = true;
    auto engine = StorageEngine::Open(path, options);
    ASSERT_TRUE(engine.ok());
    EXPECT_FALSE((*engine)->VerifySlice(id).ok());
  }
}

TEST(StorageEngineTest, PageFaultsChargeTheAccountant) {
  const std::string path = TempPath("se_charges");
  IoAccountant io;
  StorageEngineOptions options;
  options.pool_pages = 2;
  options.io = &io;
  options.remove_on_close = true;
  auto engine = StorageEngine::Open(path, options);
  ASSERT_TRUE(engine.ok());
  const auto id = (*engine)->PutSlice(RandomBits(1 << 16, 5));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*engine)->Sync().ok());
  // Writes were charged symmetrically.
  EXPECT_GT(io.stats().pages_written, 0u);
  EXPECT_GT(io.stats().bytes_written, 0u);
  io.Reset();
  // A cold read faults every extent page; bytes equal the stored form.
  size_t faulted = 0;
  ASSERT_TRUE((*engine)->GetSlice(*id, &faulted).ok());
  const auto stored_bytes = (*engine)->SliceBytes(*id);
  ASSERT_TRUE(stored_bytes.ok());
  EXPECT_EQ(io.stats().bytes_read, *stored_bytes);
  const auto pages = (*engine)->SlicePages(*id);
  ASSERT_TRUE(pages.ok());
  EXPECT_EQ(faulted, *pages);
  EXPECT_EQ(io.stats().pages_read, *pages);
}

}  // namespace
}  // namespace engine
}  // namespace ebi
