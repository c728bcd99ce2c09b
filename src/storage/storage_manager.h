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
// the pages' lifetime. Structure mutation (CreateFile / AppendPage, including
// result-cache spill files) is latch-protected but must not overlap parallel
// query execution on the same engine — spills belong to the serial,
// order-preserving paths.

#ifndef SMOOTHSCAN_STORAGE_STORAGE_MANAGER_H_
#define SMOOTHSCAN_STORAGE_STORAGE_MANAGER_H_

#include <deque>
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

  const File& GetFile(FileId file) const {
    SMOOTHSCAN_CHECK(file < files_.size());
    return files_[file];
  }

  uint32_t page_size_;
  /// Guards structure mutation (files/page vectors).
  mutable latch::Latch mu_{latch::LatchRank::kStorage, "StorageManager::mu_"};
  /// A deque so File references stay stable across CreateFile — snapshot
  /// publish may append pages to one table while queries run against others.
  /// Same-table append-vs-read is excluded by the table read leases
  /// (write/table_version.h), not by a latch here — which is also why this
  /// member is deliberately NOT `GUARDED_BY(mu_)`: the read path (GetPage,
  /// NumPages, FileName) is latch-free by design and lease-protected.
  std::deque<File> files_;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_STORAGE_STORAGE_MANAGER_H_
