// StorageManager: owns the raw pages of every file in the simulated database.
//
// Pages live in memory; the *cost* of reaching them is modelled by SimDisk
// (see sim_disk.h) and cached by BufferPool (see buffer_pool.h). Build-time
// code (loaders, index construction) accesses pages directly and free of
// charge, mirroring the paper's setup where data is loaded before the timed,
// cold-cache query runs.
//
// Threading: query-time execution only *reads* pages, so concurrent GetPage
// calls from parallel workers need no latch and Page pointers stay stable for
// the pages' lifetime. Structure mutation (CreateFile / AppendPage) is
// latch-protected. CreateFile may run while queries read other files: a
// Result Cache creates its spill file mid-query, under broker pressure, while
// the engine's other queries scan. AppendPage and TruncateFile must not
// overlap reads of the same file.

#ifndef SMOOTHSCAN_STORAGE_STORAGE_MANAGER_H_
#define SMOOTHSCAN_STORAGE_STORAGE_MANAGER_H_

#include <array>
#include <atomic>
#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "common/latch_rank.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "storage/page.h"

namespace smoothscan {

/// Owns all files (ordered page sequences) of the simulated database.
class StorageManager {
 public:
  explicit StorageManager(uint32_t page_size = kDefaultPageSize)
      : page_size_(page_size) {}

  StorageManager(const StorageManager&) = delete;
  StorageManager& operator=(const StorageManager&) = delete;

  /// Creates a new empty file and returns its id.
  FileId CreateFile(std::string name) EXCLUDES(mu_);

  /// Appends a fresh page to `file` and returns its id.
  PageId AppendPage(FileId file) EXCLUDES(mu_);

  /// Drops every page of `file` (the file id stays valid and empty). Used by
  /// compressed-extent rebuilds; callers must first evict the file's frames
  /// from every buffer pool that could still hand out page references, and
  /// must not overlap a truncate with reads of the same file (the compressed
  /// tier guarantees this by rebuilding only at publish quiescence).
  void TruncateFile(FileId file) EXCLUDES(mu_);

  /// Mutable access for build-time loading (no I/O accounting).
  Page* GetPageForWrite(FileId file, PageId page);

  /// Read access for build-time code and for the buffer pool (which performs
  /// the I/O accounting itself before calling this).
  const Page& GetPage(FileId file, PageId page) const;

  size_t NumPages(FileId file) const;
  const std::string& FileName(FileId file) const;
  uint32_t page_size() const { return page_size_; }

 private:
  struct File {
    std::string name;
    std::vector<std::unique_ptr<Page>> pages;
  };

  /// Chunk k holds kFirstChunkFiles << k files and starts at file
  /// kFirstChunkFiles * (2^k - 1); 27 chunks cover every FileId.
  static constexpr size_t kFirstChunkFiles = 64;
  static constexpr size_t kNumChunks = 27;
  static size_t ChunkOf(size_t file) {
    return std::bit_width(file / kFirstChunkFiles + 1) - 1;
  }
  static size_t SlotOf(size_t file, size_t chunk) {
    return file - kFirstChunkFiles * ((size_t{1} << chunk) - 1);
  }

  File& GetFile(FileId file) const {
    SMOOTHSCAN_CHECK(file < num_files_.load(std::memory_order_acquire));
    const size_t chunk = ChunkOf(file);
    return chunks_[chunk][SlotOf(file, chunk)];
  }

  uint32_t page_size_;
  /// Guards structure mutation (files/page vectors).
  mutable latch::Latch mu_{latch::LatchRank::kStorage, "StorageManager::mu_"};
  /// Files live in fixed chunks that never move, and CreateFile publishes a
  /// file by a release store of `num_files_` after constructing it, so a
  /// latch-free reader can look up one file while another is created —
  /// snapshot publish may append pages to one table while queries run
  /// against others. Same-table append-vs-read is excluded by the table read
  /// leases (write/table_version.h), not by a latch here — which is also why
  /// these members are deliberately NOT `GUARDED_BY(mu_)`: the read path
  /// (GetPage, NumPages, FileName) is latch-free by design.
  std::array<std::unique_ptr<File[]>, kNumChunks> chunks_;
  std::atomic<size_t> num_files_{0};
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_STORAGE_STORAGE_MANAGER_H_
