// SwitchScan (Section III / VI-F): the straw-man run-time adaptivity. Runs a
// plain index scan while the produced cardinality stays within the
// optimizer's estimate; the moment the estimate is violated it abandons the
// index and restarts as a full table scan, using a Tuple ID Cache to avoid
// duplicating the tuples already produced. The binary switch bounds the worst
// case but creates the performance cliff Fig. 11 shows.

#ifndef SMOOTHSCAN_ACCESS_SWITCH_SCAN_H_
#define SMOOTHSCAN_ACCESS_SWITCH_SCAN_H_

#include <optional>
#include <utility>

#include "access/access_path.h"
#include "access/tuple_id_cache.h"
#include "index/bplus_tree.h"

namespace smoothscan {

struct SwitchScanOptions {
  /// The optimizer's result-cardinality estimate; exceeding it triggers the
  /// switch to a full scan.
  uint64_t estimated_cardinality = 0;
};

class SwitchScan : public AccessPath {
 public:
  SwitchScan(const BPlusTree* index, ScanPredicate predicate,
             SwitchScanOptions options);

  /// Morsel restriction, for the parallel kernel: the post-switch full scan
  /// covers heap pages [page_begin, page_end) only. With `frozen` null the
  /// scan starts in the index phase (the kernel's prolog, over an empty
  /// range); otherwise it starts switched and suppresses the tuples recorded
  /// in `frozen`, the prolog's Tuple ID Cache, which must outlive the open
  /// cycle.
  SwitchScan(const BPlusTree* index, ScanPredicate predicate,
             SwitchScanOptions options, PageId page_begin, PageId page_end,
             const TupleIdCache* frozen);

  const char* name() const override { return "SwitchScan"; }

  bool switched() const { return switched_; }

  /// Moves out the index phase's Tuple ID Cache (the parallel kernel freezes
  /// it for its morsels). Call at end of stream, before Close().
  TupleIdCache TakeProduced() { return std::move(produced_); }

 protected:
  Status OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;
  ExecContext DefaultContext() const override;

 private:
  /// Index phase: appends until the batch is full, the range ends, or the
  /// estimate is violated (which flips `switched_`).
  void IndexPhase(TupleBatch* out);
  /// Post-switch full-scan phase.
  void FullScanPhase(TupleBatch* out);

  const BPlusTree* index_;
  ScanPredicate predicate_;
  SwitchScanOptions options_;

  std::optional<BPlusTree::Iterator> it_;
  TupleIdCache produced_;
  bool switched_ = false;
  // Morsel restriction (see the morsel constructor); an unrestricted scan
  // ends at the heap's page count and dedups against its own `produced_`.
  PageId page_begin_ = 0;
  PageId page_end_ = kInvalidPageId;
  const TupleIdCache* frozen_ = nullptr;

  // Full-scan cursor (see FullScan).
  PageId cur_page_ = 0;
  uint16_t cur_slot_ = 0;
  PageId window_end_ = 0;
  PageId num_pages_ = 0;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_ACCESS_SWITCH_SCAN_H_
