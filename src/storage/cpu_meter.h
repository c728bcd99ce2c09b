// CPU cost accounting. The paper's central trade — Smooth Scan "invests CPU
// cycles for reading additional tuples from each page" to save I/O — requires
// charging CPU work in the same simulated-time units as I/O. One sequential
// page read costs 1.0 time unit (see DeviceProfile); the constants below make
// inspecting a full page of ~100 tuples cost a few percent of reading it,
// consistent with the paper's "one I/O ≈ a million CPU instructions" rule of
// thumb [19] while keeping CPU visible in the Fig. 4 breakdowns.

#ifndef SMOOTHSCAN_STORAGE_CPU_METER_H_
#define SMOOTHSCAN_STORAGE_CPU_METER_H_

#include <cmath>
#include <cstdint>

namespace smoothscan {

/// Per-operation CPU costs in simulated time units (seq page read = 1.0).
/// Deserializing one tuple and evaluating the predicate on it.
inline constexpr double kCpuInspectTuple = 5e-4;
/// Copying a qualifying tuple to the output (or into a result cache).
inline constexpr double kCpuProduceTuple = 2e-4;
/// One bitmap or hash cache operation (probe/insert/delete).
inline constexpr double kCpuCacheOp = 5e-5;
/// Advancing one index-leaf entry.
inline constexpr double kCpuIndexEntry = 5e-5;
/// Per-element-comparison cost of sorting (total = n * log2(n) * this).
inline constexpr double kCpuSortPerCmp = 2e-4;
/// One hash-table build or probe operation in joins/aggregates.
inline constexpr double kCpuHashOp = 2e-4;
/// Applying one mutation to a slotted page (serialize + slot bookkeeping;
/// index-maintenance queueing is amortized in). Writes cost more than
/// inspection but stay far below one page I/O, like the other constants.
inline constexpr double kCpuWriteTuple = 1e-3;

/// Accumulates simulated CPU time.
class CpuMeter {
 public:
  void ChargeInspect(uint64_t tuples = 1) {
    time_ += kCpuInspectTuple * static_cast<double>(tuples);
  }
  void ChargeProduce(uint64_t tuples = 1) {
    time_ += kCpuProduceTuple * static_cast<double>(tuples);
  }
  void ChargeCacheOp(uint64_t ops = 1) {
    time_ += kCpuCacheOp * static_cast<double>(ops);
  }
  void ChargeIndexEntry(uint64_t entries = 1) {
    time_ += kCpuIndexEntry * static_cast<double>(entries);
  }
  /// Charges an n*log2(n) comparison sort of `n` items.
  void ChargeSort(uint64_t n) {
    if (n < 2) return;
    time_ += kCpuSortPerCmp * static_cast<double>(n) *
             std::log2(static_cast<double>(n));
  }
  void ChargeHashOp(uint64_t ops = 1) {
    time_ += kCpuHashOp * static_cast<double>(ops);
  }
  void ChargeWriteTuple(uint64_t tuples = 1) {
    time_ += kCpuWriteTuple * static_cast<double>(tuples);
  }
  /// Adds another meter's accumulated time (morsel merge; callers merge in
  /// morsel order so double accumulation stays deterministic).
  void Add(double time) { time_ += time; }

  double time() const { return time_; }
  void Reset() { time_ = 0.0; }

 private:
  double time_ = 0.0;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_STORAGE_CPU_METER_H_
