// SimDisk: the simulated I/O device that substitutes for the paper's HDD/SSD
// testbed (see DESIGN.md §1).
//
// Every page access issued by the buffer pool is classified as *sequential*
// (it targets the page immediately after the previously accessed page of the
// same file) or *random*, and charged the device's per-page cost. The paper's
// own analysis (Section V-A) characterizes devices purely by this ratio:
// HDD rand:seq = 10:1, SSD rand:seq = 2:1. Positions are tracked per file,
// matching the paper's cost model where index-leaf traversal stays sequential
// while interleaved heap look-ups are random (Eq. 11).
//
// A short *forward* skip is charged min(rand_cost, distance * seq_cost): the
// head (or the drive's read-ahead) passes over the skipped pages at transfer
// speed, which is what makes the nearly sequential pattern of a sorted-TID
// bitmap scan "easily detected by disk prefetchers" (Section II) cheap. Such
// accesses are counted as sequential when the skip is cheaper than a seek.
//
// The accountant additionally counts I/O *requests*: one ReadPage call or one
// ReadExtent call is a single request regardless of the number of pages it
// transfers. This is the "#I/O Req." metric of the paper's Table II and the
// quantity Smooth Scan's flattening is designed to reduce.
//
// Threading model: a SimDisk instance is one *logical access stream*. The
// engine's instance is the serial stream; morsel-driven execution gives every
// morsel a private SimDisk (see PrivateContext) and merges the resulting
// IoStats into the engine's instance in morsel order, so simulated time is a
// pure function of the morsel decomposition — never of worker interleaving.
// The instance itself is latch-protected, so incidental concurrent use (e.g.
// two operators sharing the engine stream) is safe, merely not deterministic.

#ifndef SMOOTHSCAN_STORAGE_SIM_DISK_H_
#define SMOOTHSCAN_STORAGE_SIM_DISK_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/latch_rank.h"
#include "common/thread_annotations.h"
#include "common/types.h"

namespace smoothscan {

/// Cost profile of a storage device, in abstract time units where one
/// sequential page read costs `seq_cost`.
struct DeviceProfile {
  std::string name = "hdd";
  /// Cost of a random page access (head movement + transfer).
  double rand_cost = 10.0;
  /// Cost of a sequential page access (transfer only).
  double seq_cost = 1.0;

  /// The paper's HDD characteristics (Section V-A): rand:seq = 10:1.
  static DeviceProfile Hdd() { return DeviceProfile{"hdd", 10.0, 1.0}; }
  /// The paper's SSD characteristics (Section V-A): rand:seq = 2:1.
  static DeviceProfile Ssd() { return DeviceProfile{"ssd", 2.0, 1.0}; }
};

/// Cumulative I/O counters. All counters only ever increase; benchmarks diff
/// snapshots around the measured region.
struct IoStats {
  uint64_t random_ios = 0;      ///< Page accesses classified random.
  uint64_t seq_ios = 0;         ///< Page accesses classified sequential.
  uint64_t io_requests = 0;     ///< Read calls (extent reads count once).
  uint64_t pages_read = 0;      ///< Total pages transferred (reads).
  uint64_t pages_written = 0;   ///< Total pages transferred (writes).
  uint64_t bytes_read = 0;      ///< pages_read * page_size.
  double io_time = 0.0;         ///< Simulated time spent in I/O.

  IoStats& operator+=(const IoStats& other) {
    random_ios += other.random_ios;
    seq_ios += other.seq_ios;
    io_requests += other.io_requests;
    pages_read += other.pages_read;
    pages_written += other.pages_written;
    bytes_read += other.bytes_read;
    io_time += other.io_time;
    return *this;
  }

  IoStats operator-(const IoStats& other) const {
    IoStats d;
    d.random_ios = random_ios - other.random_ios;
    d.seq_ios = seq_ios - other.seq_ios;
    d.io_requests = io_requests - other.io_requests;
    d.pages_read = pages_read - other.pages_read;
    d.pages_written = pages_written - other.pages_written;
    d.bytes_read = bytes_read - other.bytes_read;
    d.io_time = io_time - other.io_time;
    return d;
  }
};

/// Simulated disk: pure cost accounting, no data movement (the data lives in
/// StorageManager). Latch-protected; see the threading model above.
class SimDisk {
 public:
  explicit SimDisk(DeviceProfile profile = DeviceProfile::Hdd(),
                   uint32_t page_size = kDefaultPageSize)
      : profile_(profile), page_size_(page_size) {}

  /// Charges one single-page read of `page` in `file`.
  void ReadPage(FileId file, PageId page);

  /// Charges one extent read of `num_pages` pages starting at `first`:
  /// a single I/O request, with the first page charged by position and the
  /// remainder sequential. Models the flattened prefetching of Smooth Scan's
  /// Mode 2 and the read-ahead a full scan enjoys.
  void ReadExtent(FileId file, PageId first, uint32_t num_pages);

  /// Charges one extent write (overflow-file spills, dirty-page write-back).
  /// Same positioning model as reads; counted in `pages_written`.
  void WriteExtent(FileId file, PageId first, uint32_t num_pages);

  /// Charges one single-page write of `page` in `file` (dirty-frame
  /// write-back of an isolated page).
  void WritePage(FileId file, PageId page);

  /// Snapshot of the counters (copied under the latch).
  IoStats stats() const EXCLUDES(mu_) {
    latch::LatchGuard lock(mu_);
    return stats_;
  }

  const DeviceProfile& profile() const { return profile_; }

  /// Places the head of this stream just after `page` of `file`, so the next
  /// forward access continues sequentially. Morsel-driven execution seeds a
  /// morsel's private stream at `page_begin - 1`: in the serial execution
  /// order the preceding page-range morsel ended exactly there, which is what
  /// keeps the summed parallel cost bit-identical to the serial scan.
  void SeedPosition(FileId file, PageId page) EXCLUDES(mu_) {
    latch::LatchGuard lock(mu_);
    last_page_[file] = page;
  }

  /// Adds another stream's counters to this one (morsel merge). Callers merge
  /// in morsel order so double accumulation stays deterministic.
  void Absorb(const IoStats& other) EXCLUDES(mu_) {
    latch::LatchGuard lock(mu_);
    stats_ += other;
  }

  /// Forgets per-file head positions (e.g. between cold query runs) without
  /// clearing cumulative counters.
  void ResetPositions() EXCLUDES(mu_) {
    latch::LatchGuard lock(mu_);
    last_page_.clear();
  }

  /// Clears counters and positions.
  void ResetAll() EXCLUDES(mu_) {
    latch::LatchGuard lock(mu_);
    stats_ = IoStats();
    last_page_.clear();
  }

 private:
  void Access(FileId file, PageId first, uint32_t num_pages, bool is_write)
      EXCLUDES(mu_);

  DeviceProfile profile_;
  uint32_t page_size_;
  mutable latch::Latch mu_{latch::LatchRank::kDisk, "SimDisk::mu_"};
  IoStats stats_ GUARDED_BY(mu_);
  std::unordered_map<FileId, PageId> last_page_ GUARDED_BY(mu_);
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_STORAGE_SIM_DISK_H_
