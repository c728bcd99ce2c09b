// ParallelScan: morsel-driven parallel execution of the access paths
// (Leis et al.'s morsel model adapted to the paper's simulated substrate).
//
// A kernel is a decomposition, not a second implementation of its path. It
// splits the scan into a fixed list of morsels — page ranges or key ranges,
// derived from the data alone, never from the worker count — after an
// optional serial prolog (index leaf walks, TID sorts, the pre-switch index
// phase, which runs the serial SwitchScan). Each morsel then runs the serial
// operator, restricted to the morsel through a constructor only the kernels
// use, or the phase function that operator shares (SortScan's
// FetchSortedTids); no kernel has a page or tuple loop of its own, and
// scripts/lint_invariants.py enforces that. Workers pull morsels from a
// shared MorselSource and run each one against its own PrivateContext (a
// simulated disk, single-shard buffer pool and CPU meter: one logical access
// stream per morsel). Produced batches flow through per-morsel output slots
// that the consumer drains in morsel order.
//
// The serial operators are not one-morsel kernel runs: RunMorsel pushes its
// output and runs to completion, so an inline one-morsel scan would buffer
// the whole result before its first batch, and ordered output, non-eager
// Smooth Scan triggers and the shared Page ID Cache exist only serially.
//
// Accounting: a ParallelScan is charged like any AccessPath — through the
// ExecContext it runs against (SetExecContext, or the engine's by default).
// Its morsel streams settle into that context's disk and CPU meter; its
// morsel and planning pools mirror the context pool's mirror and feed its
// metrics sink; its owned BatchPool, built at the first Open, charges the
// context's memory account. Nothing above the scan needs to know it is
// parallel.
//
// Determinism: because the decomposition is DOP-independent and every
// morsel's accounting is stream-local, the simulated cost of a parallel scan
// is bit-identical at any degree of parallelism — streams settle into the
// context in morsel order, fixing even the floating-point summation order.
// For the page-range FullScan decomposition the per-morsel streams are seeded
// at `page_begin - 1` (the position the serial scan would have), making the
// parallel I/O charges bit-identical to the *serial* scan's in the same
// context as well (CPU time equal up to float summation order). Wall-clock
// time is the only thing the workers change.
//
// Ordering: workers emit morsel-locally in scan order, and the consumer sees
// morsels in index order, so a page-range decomposition yields heap order and
// a key-range decomposition yields index-key order — but order-*preserving*
// configurations that need cross-morsel merges (SortScan/SmoothScan with
// preserve_order) are serial-only and rejected by the factories.
//
// Run-to-completion: a started scan always executes every morsel, even when
// the consumer falls behind or Closes mid-stream, and the per-morsel output
// queues are unbounded — peak buffering is bounded by the result set, not by
// a backpressure window. This is deliberate: cancelling or throttling workers
// would make the charges of an abandoned run depend on scheduling, and the
// whole design exists to keep simulated cost schedule-independent. Consumers
// that need only a prefix of a huge result should bound the scan itself
// (predicate or page range), not rely on early Close to shed work.

#ifndef SMOOTHSCAN_ACCESS_PARALLEL_SCAN_H_
#define SMOOTHSCAN_ACCESS_PARALLEL_SCAN_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <vector>

#include "access/access_path.h"
#include "access/full_scan.h"
#include "access/morsel_source.h"
#include "access/smooth_scan.h"
#include "access/sort_scan.h"
#include "access/switch_scan.h"
#include "common/latch_rank.h"
#include "common/thread_annotations.h"
#include "exec/task_scheduler.h"
#include "mem/batch_pool.h"
#include "storage/exec_context.h"

namespace smoothscan {

struct ParallelScanOptions {
  /// Workers draining the morsel queue (1 = serial schedule, same cost).
  uint32_t dop = 1;
  /// Page-range morsel size; rounded to a multiple of the scan's read-ahead
  /// window so parallel extent boundaries coincide with the serial scan's.
  uint32_t morsel_pages = 128;
  /// Cap on the key-range decomposition of index-driven scans.
  // lint:allow(dead-option) — tests pick odd and single-morsel splits.
  uint32_t max_key_morsels = 32;
  /// Optional shared worker pool; the scan owns a private one when null.
  TaskScheduler* scheduler = nullptr;
  /// Ablation knob for the scan's batch pool: false reverts to
  /// allocate-per-batch (bench_mem_governance's baseline).
  bool recycle_batches = true;
};

/// The path-specific logic of a parallel scan. Plan() runs serially on the
/// consumer thread against the planning stream; RunMorsel() runs once per
/// morsel, concurrently, each call against its own stream.
class ParallelScanKernel {
 public:
  /// Kernels Acquire() batches from ctx.batch_pool, fill, and emit; the
  /// consumer (or the pool handle's destructor) releases them — so batch
  /// storage cycles between producers and consumer without heap traffic.
  using EmitFn = std::function<void(PooledBatch&&)>;

  virtual ~ParallelScanKernel() = default;
  virtual const char* name() const = 0;

  /// Observability bind, called once per Open cycle (before Plan) with the
  /// owning path's handle, which the kernel may attach to its morsels'
  /// operators. Bookkeeping only; default no-op. `obs` may be null.
  virtual void BindObs(const obs::ObsContext* obs) { (void)obs; }

  /// The smooth kernel's operator counters, merged over all morsels in
  /// morsel order (valid once the cycle settled — after the consumer drained
  /// the scan or Close). Empty for every other kernel. Lets tests reconcile
  /// the registry's counter-backed smooth.* metrics against the operator's
  /// own bookkeeping at any DOP.
  virtual SmoothScanStats smooth_stats() const { return SmoothScanStats(); }

  /// Serial prolog: builds the morsel list; may emit prolog tuples and
  /// accumulate prolog counters. Charged to the planning stream.
  virtual std::vector<Morsel> Plan(const ExecContext& planning,
                                   const EmitFn& emit,
                                   AccessPathStats* stats) = 0;

  /// Runs one morsel. Must touch only morsel-local and read-only state (plus
  /// explicitly thread-safe shared structures); charges `ctx`.
  virtual AccessPathStats RunMorsel(const Morsel& morsel,
                                    const ExecContext& ctx,
                                    const EmitFn& emit) = 0;

 protected:
  /// Opens `scan` (a serial operator restricted to one morsel) against `ctx`
  /// and emits its whole stream; returns its stats. The caller closes it.
  static AccessPathStats Drain(AccessPath& scan, const ExecContext& ctx,
                               const EmitFn& emit);
};

/// Rounds a morsel size down to a multiple of the read-ahead window (and up
/// to at least one window), so parallel extent requests coincide with the
/// serial scan's.
uint32_t AlignMorselPages(uint32_t morsel_pages, uint32_t read_ahead);

/// AccessPath adapter running a kernel on a worker pool (see file comment).
/// A ScanOp over it is an operator tree's exchange boundary: everything above
/// consumes the gathered batch stream serially.
class ParallelScan : public AccessPath {
 public:
  ParallelScan(Engine* engine, std::unique_ptr<ParallelScanKernel> kernel,
               ParallelScanOptions options);
  ~ParallelScan() override;

  const char* name() const override { return kernel_->name(); }
  uint32_t dop() const { return options_.dop; }
  /// Valid after Open().
  size_t num_morsels() const { return source_ != nullptr ? source_->size() : 0; }
  const ParallelScanKernel* kernel() const { return kernel_.get(); }
  /// The batch pool the kernels draw output batches from: built at the
  /// first Open and kept across Open cycles (steady-state reuse).
  const BatchPool* batch_pool() const { return pool_.get(); }

 protected:
  Status OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;
  ExecContext DefaultContext() const override;

 private:
  /// Per-slot output queue: slot 0 is the prolog, slot i+1 is morsel i. A
  /// vector + head cursor instead of a deque: entries are tiny pool handles,
  /// pushes amortize into the retained capacity, and a drained slot frees in
  /// one shot.
  struct Slot {
    std::vector<PooledBatch> batches;
    size_t head = 0;
    bool done = false;
  };

  TaskScheduler* scheduler();
  void EmitTo(size_t slot, PooledBatch&& batch) EXCLUDES(mu_);
  /// Waits for the workers and merges all stream accounting into the
  /// cycle's context (planning first, then morsels in index order).
  /// Idempotent per cycle.
  void Finalize();

  Engine* engine_;
  std::unique_ptr<ParallelScanKernel> kernel_;
  ParallelScanOptions options_;
  std::unique_ptr<TaskScheduler> owned_scheduler_;
  std::unique_ptr<BatchPool> pool_;
  /// The context the current cycle settles into (ctx() as of its Open).
  ExecContext settle_;

  std::unique_ptr<MorselSource> source_;
  std::unique_ptr<PrivateContext> planning_;
  std::vector<std::unique_ptr<PrivateContext>> contexts_;
  std::vector<AccessPathStats> morsel_stats_;
  AccessPathStats prolog_stats_;
  std::shared_ptr<TaskScheduler::TaskGroup> group_;
  bool finalized_ = true;

  /// Clearing a drained slot under this latch runs PooledBatch destructors,
  /// which release into the BatchPool (and possibly the broker) — hence its
  /// rank above both.
  latch::Latch mu_{latch::LatchRank::kParallelScan, "ParallelScan::mu_"};
  std::condition_variable_any cv_;
  std::vector<Slot> slots_ GUARDED_BY(mu_);
  size_t emit_slot_ GUARDED_BY(mu_) = 0;
  // Consumer-thread-only staging of the batch being drained; never touched by
  // workers, so deliberately outside the latch.
  PooledBatch pending_;
  size_t pending_pos_ = 0;
};

/// Kernel factories. Each returns null for configurations whose semantics
/// require a serial scan (order preservation, non-eager Smooth Scan
/// triggers); callers fall back to the serial operator.
std::unique_ptr<ParallelScan> MakeParallelFullScan(
    const HeapFile* heap, ScanPredicate predicate, FullScanOptions scan_options,
    ParallelScanOptions options);
std::unique_ptr<ParallelScan> MakeParallelIndexScan(
    const BPlusTree* index, ScanPredicate predicate,
    ParallelScanOptions options);
std::unique_ptr<ParallelScan> MakeParallelSortScan(
    const BPlusTree* index, ScanPredicate predicate,
    SortScanOptions scan_options, ParallelScanOptions options);
std::unique_ptr<ParallelScan> MakeParallelSwitchScan(
    const BPlusTree* index, ScanPredicate predicate,
    SwitchScanOptions scan_options, ParallelScanOptions options);
std::unique_ptr<ParallelScan> MakeParallelSmoothScan(
    const BPlusTree* index, ScanPredicate predicate,
    SmoothScanOptions scan_options, ParallelScanOptions options);

}  // namespace smoothscan

#endif  // SMOOTHSCAN_ACCESS_PARALLEL_SCAN_H_
