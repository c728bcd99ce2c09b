// MemoryBroker: one byte budget over every memory consumer of the engine —
// buffer-pool frames, ResultCache resident tuples and per-query execution
// memory (pooled batches) — the multi-class memory-allocation problem of
// Brown et al. (VLDB 1994) reduced to what this engine's consumers need: a
// total, its peak and a pressure flag.
//
// The broker is *advisory*, not a gatekeeper: consumers charge and uncharge
// bytes as their footprint changes, and poll UnderPressure() / their own
// QueryMemoryScope quota on their own thread. Under pressure each consumer
// sheds in its own way — the ResultCache spills its furthest partitions to
// the simulated overflow file, batch pools drop recycled row storage instead
// of free-listing it, the network server shrinks batch-lane windows. Nothing
// ever fails: shedding converts memory into (simulated or real) time, never
// into an error.
//
// Accounting invariant: broker charges are bookkeeping only. No charge or
// shed decision touches a per-query SimDisk or CpuMeter, and the one shed
// that does I/O (ResultCache spill) charges the engine's *communal* stream,
// like the pre-broker budget spills, so per-query simulated cost is
// bit-identical with the broker on or off, at any quota.

#ifndef SMOOTHSCAN_MEM_MEMORY_BROKER_H_
#define SMOOTHSCAN_MEM_MEMORY_BROKER_H_

#include <atomic>
#include <cstdint>

#include "common/latch_rank.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace smoothscan {

struct MemoryBrokerOptions {
  /// Global byte budget across all consumers; charges past it raise the
  /// pressure flag (never fail). Default: unbounded.
  uint64_t global_budget_bytes = UINT64_MAX;
};

class MemoryBroker {
 public:
  /// One consumer's charging handle. It counts its own bytes — atomically,
  /// since a parallel query's pools charge from worker threads — and
  /// forwards every charge to `broker`'s total; with a null broker it only
  /// counts. Returns whatever it still holds to the broker on destruction.
  class Consumer {
   public:
    explicit Consumer(MemoryBroker* broker) : broker_(broker) {}
    Consumer(const Consumer&) = delete;
    Consumer& operator=(const Consumer&) = delete;
    ~Consumer() {
      if (broker_ != nullptr) broker_->Uncharge(bytes());
    }

    /// True when charges reach a broker.
    bool valid() const { return broker_ != nullptr; }
    /// Returns this consumer's bytes after the charge.
    uint64_t Charge(uint64_t bytes) {
      const uint64_t after =
          bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
      if (broker_ != nullptr) broker_->Charge(bytes);
      return after;
    }
    void Uncharge(uint64_t bytes) {
      const uint64_t before =
          bytes_.fetch_sub(bytes, std::memory_order_relaxed);
      SMOOTHSCAN_CHECK(before >= bytes);
      if (broker_ != nullptr) broker_->Uncharge(bytes);
    }
    uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

   private:
    MemoryBroker* const broker_;
    std::atomic<uint64_t> bytes_{0};
  };

  explicit MemoryBroker(MemoryBrokerOptions options = MemoryBrokerOptions())
      : budget_(options.global_budget_bytes),
        low_water_(budget_ - budget_ / 8) {}

  MemoryBroker(const MemoryBroker&) = delete;
  MemoryBroker& operator=(const MemoryBroker&) = delete;

  uint64_t total_bytes() const {
    return total_.load(std::memory_order_relaxed);
  }

  /// True from the charge that pushes the total past the global budget until
  /// the uncharge that brings it back to the low-water mark, `budget -
  /// budget / 8` (hysteresis: a consumer that sheds just below the budget
  /// and immediately re-charges does not flap the flag, damping the
  /// spill/restore ping-pong at the budget line). Lock-free: consumers poll
  /// this on hot paths.
  bool UnderPressure() const {
    return pressured_.load(std::memory_order_relaxed);
  }

  /// Bumped every time the pressure flag rises — consumers (and tests) can
  /// detect "pressure happened" even if it was relieved.
  uint64_t pressure_epoch() const {
    return pressure_epoch_.load(std::memory_order_relaxed);
  }

  uint64_t peak_total_bytes() const EXCLUDES(mu_);

 private:
  void Charge(uint64_t bytes) EXCLUDES(mu_);
  void Uncharge(uint64_t bytes) EXCLUDES(mu_);

  /// Re-derives the pressure flag after `total_` moved to `after`. The flag
  /// is written only under `mu_` (so rise/fall transitions serialize) but
  /// read lock-free by UnderPressure().
  void UpdatePressureLocked(uint64_t before, uint64_t after) REQUIRES(mu_);

  const uint64_t budget_;
  const uint64_t low_water_;
  /// The broker latch is a leaf: BatchPool charges its query scope (which
  /// forwards here) while holding the pool latch.
  mutable latch::Latch mu_{latch::LatchRank::kBroker, "MemoryBroker::mu_"};
  uint64_t peak_total_ GUARDED_BY(mu_) = 0;
  /// Written under `mu_`, readable without it.
  std::atomic<uint64_t> total_{0};
  /// Hysteresis pressure flag (see UnderPressure); written under `mu_` only.
  std::atomic<bool> pressured_{false};
  std::atomic<uint64_t> pressure_epoch_{0};
};

/// Per-query execution-memory account: charged by the query's batch pools
/// (through ExecContext), counted against a per-query quota and, when a
/// broker is attached, against the broker's total. Breaching the quota — or
/// global broker pressure — makes the pools shed recycled storage; the
/// query itself never fails and its simulated cost never changes.
class QueryMemoryScope {
 public:
  /// `broker` may be null: the scope then enforces only its own quota.
  explicit QueryMemoryScope(MemoryBroker* broker = nullptr,
                            uint64_t quota_bytes = UINT64_MAX);

  QueryMemoryScope(const QueryMemoryScope&) = delete;
  QueryMemoryScope& operator=(const QueryMemoryScope&) = delete;

  void Charge(uint64_t bytes);
  void Uncharge(uint64_t bytes) { consumer_.Uncharge(bytes); }
  /// True when the query should shed memory instead of retaining more.
  bool OverQuota() const;

  uint64_t bytes() const { return consumer_.bytes(); }
  uint64_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }
  /// Charges that landed (or stayed) above the quota.
  uint64_t quota_breaches() const {
    return breaches_.load(std::memory_order_relaxed);
  }

 private:
  MemoryBroker* broker_;
  const uint64_t quota_;
  MemoryBroker::Consumer consumer_;
  std::atomic<uint64_t> peak_bytes_{0};
  std::atomic<uint64_t> breaches_{0};
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_MEM_MEMORY_BROKER_H_
