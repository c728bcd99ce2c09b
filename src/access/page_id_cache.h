// Page ID Cache (Section IV-A): one bit per heap page, set once the page has
// been fully probed. Smooth Scan consults it before following an index leaf
// pointer, skipping pages it has already analyzed — the fix for the repeated
// page accesses an index scan suffers from. For a 1 M-page (8 GB) table the
// bitmap is 128 KB, matching the paper's "140 KB for LINEITEM" footprint.

#ifndef SMOOTHSCAN_ACCESS_PAGE_ID_CACHE_H_
#define SMOOTHSCAN_ACCESS_PAGE_ID_CACHE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace smoothscan {

class PageIdCache {
 public:
  /// Covers pages [first_page, first_page + num_pages): a morsel's cache is
  /// sized to its page range, not to the table.
  explicit PageIdCache(size_t num_pages, PageId first_page = 0)
      : first_(first_page), bits_(num_pages, false) {}

  void Mark(PageId page) {
    SMOOTHSCAN_CHECK(page >= first_ && page - first_ < bits_.size());
    if (!bits_[page - first_]) {
      bits_[page - first_] = true;
      ++count_;
    }
  }

  bool IsMarked(PageId page) const {
    SMOOTHSCAN_CHECK(page >= first_ && page - first_ < bits_.size());
    return bits_[page - first_];
  }

  /// Number of marked pages.
  uint64_t count() const { return count_; }
  size_t num_pages() const { return bits_.size(); }

  /// Bitmap footprint in bytes (reported by the memory-overhead analyses).
  size_t SizeBytes() const { return (bits_.size() + 7) / 8; }

 private:
  PageId first_;
  std::vector<bool> bits_;
  uint64_t count_ = 0;
};

/// The Page ID Cache shared by concurrent queries in shared-SmoothScan mode
/// (SharedSmoothGroup): the same one-bit-per-page bitmap, packed into atomic
/// words so concurrent marking is race-free. Relaxed ordering suffices: a
/// peer's mark only grants a free ride on a page still resident in the shared
/// pool, never a result.
class ConcurrentPageIdCache {
 public:
  explicit ConcurrentPageIdCache(size_t num_pages)
      : num_pages_(num_pages), words_((num_pages + 63) / 64) {}

  /// Sets the page's bit; returns true when this call newly marked it.
  bool Mark(PageId page) {
    SMOOTHSCAN_CHECK(page < num_pages_);
    const uint64_t bit = 1ULL << (page % 64);
    const uint64_t prev =
        words_[page / 64].fetch_or(bit, std::memory_order_relaxed);
    return (prev & bit) == 0;
  }

  bool IsMarked(PageId page) const {
    SMOOTHSCAN_CHECK(page < num_pages_);
    return (words_[page / 64].load(std::memory_order_relaxed) &
            (1ULL << (page % 64))) != 0;
  }

  size_t num_pages() const { return num_pages_; }
  size_t SizeBytes() const { return words_.size() * sizeof(uint64_t); }

 private:
  size_t num_pages_;
  std::vector<std::atomic<uint64_t>> words_;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_ACCESS_PAGE_ID_CACHE_H_
