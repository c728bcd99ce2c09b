// TupleBatch: the unit of data flow of the vectorized execution substrate.
// Access paths and operators produce tuples in batches (default 1024) instead
// of one virtual call per tuple, amortizing dispatch, cache-state and
// CPU-meter accounting over the whole batch — the per-row CPU tax that
// dominates scan cost once I/O is sequential.
//
// Layout: a dense array of row slots plus an optional selection vector.
// Producers fill slots in place (AppendSlot reuses the slot's Value storage
// across batches, so steady-state decode of fixed-width schemas performs no
// allocation); filters mark survivors in the selection vector instead of
// copying rows. All read accessors (`size`, `row`, `Take`) see the batch
// through the selection, so consumers are selection-oblivious.

#ifndef SMOOTHSCAN_COMMON_TUPLE_BATCH_H_
#define SMOOTHSCAN_COMMON_TUPLE_BATCH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/schema.h"

namespace smoothscan {

/// Default number of tuples per batch. 1024 keeps a batch of the
/// micro-benchmark's 10-column tuples well inside L2 while amortizing the
/// per-batch overhead to noise.
inline constexpr size_t kDefaultBatchSize = 1024;

class TupleBatch {
 public:
  /// Row slots are allocated lazily on first use: every AccessPath/Operator
  /// owns a carry batch that a pure NextBatch pipeline never touches, and it
  /// should cost nothing until it does.
  explicit TupleBatch(size_t capacity = kDefaultBatchSize)
      : capacity_(capacity) {
    SMOOTHSCAN_CHECK(capacity_ > 0);
  }

  size_t capacity() const { return capacity_; }

  /// Number of visible (selected) tuples.
  size_t size() const { return sel_active_ ? sel_.size() : filled_; }
  bool empty() const { return size() == 0; }
  /// True when no further tuple can be appended.
  bool full() const { return filled_ >= capacity_; }

  /// Forgets all rows and any selection. Row slots keep their Value storage
  /// so the next fill cycle reuses it.
  void Clear() {
    filled_ = 0;
    sel_active_ = false;
    sel_.clear();
  }

  /// The opposite of Clear(): drops the row and selection storage outright.
  /// Memory-governance shedding only (a BatchPool over quota) — the next
  /// fill reallocates lazily via EnsureRows.
  void ReleaseMemory() {
    filled_ = 0;
    sel_active_ = false;
    std::vector<Tuple>().swap(rows_);
    std::vector<uint32_t>().swap(sel_);
  }

  /// Appends a tuple by move. Illegal once a selection is active (the dense
  /// region would no longer be well defined) — Compact() first.
  void Append(Tuple tuple) {
    SMOOTHSCAN_CHECK(!sel_active_ && filled_ < capacity_);
    EnsureRows();
    rows_[filled_++] = std::move(tuple);
  }

  /// Returns the next slot for in-place filling and marks it live. The slot
  /// retains its previous Value storage — decode into it with
  /// Schema::DeserializeInto to avoid per-tuple allocation.
  Tuple* AppendSlot() {
    SMOOTHSCAN_CHECK(!sel_active_ && filled_ < capacity_);
    EnsureRows();
    return &rows_[filled_++];
  }

  /// Drops the most recently appended slot (a slot whose tuple failed the
  /// residual predicate after in-place decode).
  void PopLast() {
    SMOOTHSCAN_CHECK(!sel_active_ && filled_ > 0);
    --filled_;
  }

  /// Raw dense-fill API for scan kernels: decode directly into
  /// `fill_rows()[fill_begin() .. capacity())`, keeping the running count in
  /// a register, then publish it with set_filled(). Slots retain their Value
  /// storage across batches, as with AppendSlot().
  Tuple* fill_rows() {
    SMOOTHSCAN_CHECK(!sel_active_);
    EnsureRows();
    return rows_.data();
  }
  size_t fill_begin() const { return filled_; }
  void set_filled(size_t n) {
    SMOOTHSCAN_CHECK(!sel_active_ && n >= filled_ && n <= capacity_);
    filled_ = n;
  }

  /// Selection-aware row access: `i` indexes the visible tuples.
  const Tuple& row(size_t i) const { return rows_[Physical(i)]; }
  Tuple& row(size_t i) { return rows_[Physical(i)]; }

  /// Moves visible row `i` out of the batch.
  Tuple Take(size_t i) { return std::move(rows_[Physical(i)]); }

  /// Keeps only the visible rows satisfying `pred`, recording survivors in
  /// the selection vector (no row is moved or copied).
  template <typename Pred>
  void Filter(Pred&& pred) {
    if (!sel_active_) {
      sel_.clear();
      for (uint32_t i = 0; i < filled_; ++i) {
        if (pred(rows_[i])) sel_.push_back(i);
      }
      sel_active_ = true;
      return;
    }
    size_t kept = 0;
    for (const uint32_t phys : sel_) {
      if (pred(rows_[phys])) sel_[kept++] = phys;
    }
    sel_.resize(kept);
  }

  /// Materializes the selection into a dense prefix so Append* is legal
  /// again. Rows are moved, not copied.
  void Compact() {
    if (!sel_active_) return;
    size_t out = 0;
    for (const uint32_t phys : sel_) {
      if (phys != out) rows_[out] = std::move(rows_[phys]);
      ++out;
    }
    filled_ = out;
    sel_active_ = false;
    sel_.clear();
  }

 private:
  size_t Physical(size_t i) const {
    SMOOTHSCAN_CHECK(i < size());
    return sel_active_ ? sel_[i] : i;
  }

  void EnsureRows() {
    if (rows_.size() < capacity_) rows_.resize(capacity_);
  }

  size_t capacity_;
  size_t filled_ = 0;  ///< Dense rows in [0, filled_).
  std::vector<Tuple> rows_;
  std::vector<uint32_t> sel_;
  bool sel_active_ = false;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_COMMON_TUPLE_BATCH_H_
