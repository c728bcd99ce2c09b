// SmoothScan: the paper's statistics-oblivious morphable access path
// (Sections III–IV). Starts from index-driven access and *continuously*
// morphs toward a full table scan as observed selectivity grows — no binary
// switch, no reliance on optimizer statistics.
//
// Modes (Section III-A):
//   Mode 0  Index Scan        — only under non-eager triggers, before the
//                               trigger fires: plain tuple look-ups.
//   Mode 1  Entire Page Probe — every fetched heap page is probed fully,
//                               trading CPU for the elimination of repeated
//                               page accesses (Page ID Cache).
//   Mode 2+ Flattening Access — each index-driven fetch reads a *morphing
//                               region* of adjacent pages with one I/O
//                               request; the region size expands (and, under
//                               Elastic, shrinks) in powers of two.
//
// Policies (Section III-B): Greedy, Selectivity-Increase, Elastic. Region
// growth compares the local selectivity of the last region (Eq. 1) against
// the global selectivity of all pages seen (Eq. 2). We grow on
// `local >= global`: with the paper's strict `>` a uniformly selective table
// would keep local == global forever and freeze the operator in Mode 1,
// contradicting the convergence toward a full scan shown in Figs. 5–7.
//
// Triggers (Section III-C): Eager (default — morph from the first tuple),
// Optimizer-driven (morph once the estimate is violated) and SLA-driven
// (morph at the trigger cardinality derived from the cost model; compute it
// with CostModel::SlaTriggerCardinality and pass it in).

#ifndef SMOOTHSCAN_ACCESS_SMOOTH_SCAN_H_
#define SMOOTHSCAN_ACCESS_SMOOTH_SCAN_H_

#include <memory>
#include <optional>
#include <vector>

#include "access/access_path.h"
#include "access/page_id_cache.h"
#include "access/result_cache.h"
#include "access/tuple_id_cache.h"
#include "index/bplus_tree.h"

namespace smoothscan {

/// Morphing-region growth policy (Section III-B).
enum class MorphPolicy {
  kGreedy,               ///< Double after every index-driven probe.
  kSelectivityIncrease,  ///< Double when local sel >= global sel; never shrink.
  kElastic,              ///< Two-way: double on denser, halve on sparser.
};

/// When morphing begins (Section III-C).
enum class MorphTrigger {
  kEager,            ///< From the first tuple (the paper's default).
  kOptimizerDriven,  ///< After the optimizer's cardinality estimate is hit.
  kSlaDriven,        ///< At the cost-model-derived SLA trigger cardinality.
};

const char* MorphPolicyToString(MorphPolicy policy);
const char* MorphTriggerToString(MorphTrigger trigger);

/// Cross-query Smooth Scan sharing (the shared-SmoothScan mode of the scan
/// sharing subsystem, handed out by ScanSharingCoordinator::SmoothSharingFor):
/// every attached scan over the table feeds one common concurrent Page ID
/// Cache recording pages *some* query has already fully probed. A scan still
/// probes every page its own lap needs — results stay solo-identical — but a
/// page that a peer marked AND that is still resident in the shared pool is
/// taken without an I/O charge: the peer already paid the fetch, and the
/// residency check keeps the free ride honest under eviction. The aggregate
/// I/O of N same-table Smooth Scans thus drops toward one pass while each
/// query's private Page ID Cache keeps its result dedup exact.
struct SharedSmoothGroup {
  SharedSmoothGroup(size_t num_pages, BufferPool* shared_pool, FileId file_id)
      : cache(num_pages), pool(shared_pool), file(file_id) {}

  ConcurrentPageIdCache cache;  ///< Pages fully probed by any attached scan.
  BufferPool* pool;             ///< The shared residency pool (the engine's).
  FileId file;
};

/// One region-growth policy step (Section III-B). Compares the finished
/// region's local selectivity (Eq. 1) against the global selectivity of the
/// pages seen *before* it (Eq. 2) and returns the next region size, counting
/// the expansion/shrink into the provided counters.
uint32_t MorphRegionStep(MorphPolicy policy, uint32_t region_pages,
                         uint32_t max_region_pages, uint64_t pages_seen_before,
                         uint64_t pages_with_results_before,
                         uint64_t region_pages_seen,
                         uint64_t region_result_pages, uint64_t* expansions,
                         uint64_t* shrinks);

struct SmoothScanOptions {
  MorphPolicy policy = MorphPolicy::kElastic;
  MorphTrigger trigger = MorphTrigger::kEager;
  /// Policy adopted once a non-eager trigger fires. The paper continues with
  /// Selectivity-Increase after an optimizer trigger and with Greedy after an
  /// SLA trigger (Section VI-D).
  MorphPolicy post_trigger_policy = MorphPolicy::kSelectivityIncrease;
  /// kOptimizerDriven: the estimate whose violation triggers morphing.
  uint64_t optimizer_estimate = 0;
  /// kSlaDriven: trigger cardinality (see CostModel::SlaTriggerCardinality).
  uint64_t sla_trigger_cardinality = 0;
  /// Cap on the morphing region (the paper found 2 K pages = 16 MB optimal).
  uint32_t max_region_pages = 2048;
  /// When false the operator never leaves Mode 1 (Fig. 6's
  /// "Entire Page Probe" curve).
  bool enable_flattening = true;
  /// Maintain the index's interesting order via the Result Cache (needed for
  /// ORDER BY / Merge Join consumers).
  bool preserve_order = false;
  /// Resident-tuple budget of the Result Cache before its furthest key-range
  /// partitions spill to a simulated overflow file (Section IV-A).
  // lint:allow(dead-option) — tests force spills on small tables.
  uint64_t result_cache_budget = UINT64_MAX;
  /// Memory broker the Result Cache registers with (null = ungoverned):
  /// under global pressure the cache spills early instead of growing.
  MemoryBroker* broker = nullptr;
  /// Deduplicate pre-trigger results positionally instead of with the Tuple
  /// ID Cache: the paper notes that with a strict (indexkey, TID) ordering in
  /// the secondary index "it is sufficient to remember the last tuple we
  /// reached with the traditional index". Requires a bulk-built (globally
  /// (key, TID)-ordered) index; only meaningful for non-eager triggers.
  // lint:allow(dead-option) — the paper's alternative, pinned by tests.
  bool positional_dedup = false;
  /// Shared-SmoothScan mode: attach this scan to the table's common Page ID
  /// Cache (see SharedSmoothGroup). Null = solo behaviour, bit-identical
  /// accounting to a cold run.
  std::shared_ptr<SharedSmoothGroup> shared_group;
};

/// Operator-specific counters, exposed for the paper's Figs. 6–9 analyses.
struct SmoothScanStats {
  uint64_t card_mode0 = 0;  ///< Tuples produced pre-trigger (plain index).
  uint64_t card_mode1 = 0;  ///< Tuples from single-page probes.
  uint64_t card_mode2 = 0;  ///< Tuples from flattened regions.
  uint64_t probes = 0;      ///< Index-driven region fetches.
  uint64_t expansions = 0;
  uint64_t shrinks = 0;
  uint64_t pages_seen = 0;          ///< Distinct heap pages probed.
  uint64_t pages_with_results = 0;  ///< ... of which contained a result.
  /// Morphing accuracy inputs (Fig. 9b): pages fetched *beyond* the
  /// index-targeted page, and how many of them contained results.
  uint64_t morph_checked_pages = 0;
  uint64_t morph_result_pages = 0;
  /// Result Cache counters (Fig. 9a).
  uint64_t rc_probes = 0;
  uint64_t rc_hits = 0;
  uint64_t rc_inserts = 0;
  uint64_t rc_max_size = 0;
  /// Result Cache spill counters, latched at Close (the cache itself is an
  /// Open-to-Close structure; these survive it for benches and tests).
  uint64_t rc_spills = 0;
  uint64_t rc_pressure_spills = 0;
  uint64_t rc_spilled_tuples = 0;
  uint64_t rc_restored_tuples = 0;
  /// Shared-SmoothScan mode: pages taken for free because a peer query had
  /// already probed them and they were still resident in the shared pool.
  uint64_t shared_free_pages = 0;
  /// Index entries skipped because their target page was already harvested
  /// (Page ID Cache bit set) — the operator-side twin of the registry's
  /// smooth.page_cache_hits counter, serial and parallel.
  uint64_t page_cache_hits = 0;
  bool triggered = false;         ///< Non-eager trigger fired.
  uint64_t trigger_cardinality = 0;

  double MorphingAccuracy() const {
    return morph_checked_pages == 0
               ? 1.0
               : static_cast<double>(morph_result_pages) /
                     static_cast<double>(morph_checked_pages);
  }
  double ResultCacheHitRate() const {
    return rc_probes == 0
               ? 0.0
               : static_cast<double>(rc_hits) / static_cast<double>(rc_probes);
  }
};

/// The start a seeded morsel takes (ParallelSmoothScanKernel): the region
/// size the observed page density of the preceding morsel justifies, and the
/// morsel's lowest target page, which anchors its first region so the morsel
/// starts where its seeded stream stands. A function of the data, the morsel
/// size and the device profile, never of the DOP.
struct SmoothMorselSeed {
  uint32_t region_pages = 1;
  PageId anchor = 0;
  /// Observed density the region was derived from (distinct target pages per
  /// morsel page, in parts per million) — the morsel_seed instant's payload.
  int64_t density_ppm = 0;
};

class SmoothScan : public AccessPath {
 public:
  SmoothScan(const BPlusTree* index, ScanPredicate predicate,
             SmoothScanOptions options = SmoothScanOptions());

  /// Morsel restriction, for the parallel kernel: the scan visits `tids`
  /// (the index entries targeting heap pages [page_begin, page_end), in index
  /// order, already collected by the kernel's leaf walk) instead of walking
  /// the index, clips morphing regions at `page_end` and sizes its Page ID
  /// Cache to the range. Eager, unordered and unshared configurations only.
  /// `tids` must outlive the open cycle.
  ///
  /// A `seed` (ignored without flattening) starts region growth at
  /// `seed->region_pages` instead of one page, fetches the region holding
  /// `seed->anchor` first, and makes every region the region-sized aligned
  /// window of [page_begin, page_end) that holds its target. Unseeded, the
  /// morsel runs exactly the serial operator's loop. `spill` is a warm spill
  /// buffer to harvest into (TakeSpill hands it back after Close).
  SmoothScan(const BPlusTree* index, ScanPredicate predicate,
             SmoothScanOptions options, const std::vector<Tid>& tids,
             PageId page_begin, PageId page_end,
             std::optional<SmoothMorselSeed> seed, std::vector<Tuple> spill);

  const char* name() const override { return "SmoothScan"; }

  const SmoothScanStats& smooth_stats() const { return sstats_; }
  uint32_t current_region_pages() const { return region_pages_; }
  /// Moves the spill buffer out, warm (its slots keep their Value storage),
  /// for the next morsel's scan. Call after Close.
  std::vector<Tuple> TakeSpill() { return std::move(emit_); }

 protected:
  Status OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;
  ExecContext DefaultContext() const override;

 private:
  void NextUnordered(TupleBatch* out);
  void NextOrdered(TupleBatch* out);
  /// Pre-trigger plain index-scan step; appends at most one tuple to `out`.
  void Mode0Step(TupleBatch* out);
  /// Fires the trigger when the pre-trigger cardinality bound is exceeded.
  void MaybeTrigger();
  /// Fetches the morphing region holding `target` (one I/O request; the
  /// region starts at `target`, or at its aligned window when seeded) and
  /// harvests all qualifying tuples from unprocessed pages — into `out`
  /// while it has room, spilling the remainder of the region to `emit_` —
  /// then updates the policy state. `out` may be null (ordered mode inserts
  /// into the Result Cache instead).
  void FetchRegionAndHarvest(PageId target, TupleBatch* out);
  /// Appends one spill slot to `emit_` (growing it only past its high-water
  /// mark) for in-place decode.
  Tuple* EmitSlot();
  void UpdatePolicy(uint64_t region_pages, uint64_t region_result_pages);
  /// Index-entry cursor over the index iterator, or over the morsel's TIDs.
  bool HasEntry() const;
  Tid EntryTid() const;
  void NextEntry();

  /// Observed global selectivity so far (Eq. 2), in parts per million — the
  /// integer payload the morph trace instants carry.
  int64_t GlobalSelectivityPpm() const;
  /// Emits the pending Page-ID-Cache skip run (if any) as one coalesced
  /// trace instant. Per-hit instants would flood the ring and evict the
  /// grow/shrink timeline; the counter still counts every hit.
  void FlushCacheSkipRun();

  const BPlusTree* index_;
  ScanPredicate predicate_;
  SmoothScanOptions options_;
  SmoothScanStats sstats_;

  MorphPolicy active_policy_;
  bool morphing_ = false;  ///< False while Mode 0 (pre-trigger) is running.
  uint64_t pretrigger_bound_ = 0;
  // Positional dedup state: last (key, Tid) produced by Mode 0.
  bool m0_any_ = false;
  int64_t m0_last_key_ = 0;
  Tid m0_last_tid_{};

  std::optional<BPlusTree::Iterator> it_;
  // Morsel restriction (null tids: the whole table, walked via `it_`).
  const std::vector<Tid>* morsel_tids_ = nullptr;
  size_t next_tid_ = 0;
  PageId page_begin_ = 0;
  PageId page_end_ = 0;
  /// Set only with flattening: regions are then aligned windows of the
  /// morsel, the first one holding the anchor.
  std::optional<SmoothMorselSeed> seed_;
  bool anchor_pending_ = false;
  std::unique_ptr<PageIdCache> page_cache_;
  std::unique_ptr<TupleIdCache> tuple_cache_;
  std::unique_ptr<ResultCache> result_cache_;
  /// Overflow of harvested-but-not-yet-emitted tuples (a morphing region can
  /// exceed one batch): live in [emit_pos_, emit_end_). A high-water buffer —
  /// rows are never erased (from the front that would be quadratic at small
  /// batch sizes), the cursors reset once it drains, and its slots keep their
  /// Value storage for the next region's decode, across Open cycles too.
  std::vector<Tuple> emit_;
  size_t emit_pos_ = 0;
  size_t emit_end_ = 0;
  uint32_t region_pages_ = 1;

  // Registry handles cached at Open (null when no registry is attached) and
  // the pending coalesced Page-ID-Cache skip run (see FlushCacheSkipRun).
  obs::Counter* c_morph_triggers_ = nullptr;
  obs::Counter* c_region_grows_ = nullptr;
  obs::Counter* c_region_shrinks_ = nullptr;
  obs::Counter* c_page_cache_hits_ = nullptr;
  uint64_t cache_skip_run_ = 0;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_ACCESS_SMOOTH_SCAN_H_
