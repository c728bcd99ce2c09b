// AccessPathChooser: a textbook cost-based access-path optimizer — the
// component whose statistics-sensitivity Smooth Scan removes. Given (possibly
// corrupted) TableStats it estimates the predicate selectivity, prices Full
// Scan / Index Scan / Sort Scan with the Section-V cost model and picks the
// cheapest. MakePath(PathRequest) is the one place a chosen kind becomes an
// operator: serial or morsel-parallel, solo or shared, heap or compressed.

#ifndef SMOOTHSCAN_PLAN_ACCESS_PATH_CHOOSER_H_
#define SMOOTHSCAN_PLAN_ACCESS_PATH_CHOOSER_H_

#include <memory>

#include "access/full_scan.h"
#include "access/index_scan.h"
#include "access/parallel_scan.h"
#include "access/smooth_scan.h"
#include "access/sort_scan.h"
#include "access/switch_scan.h"
#include "compress/compressed_extent_map.h"
#include "cost/cost_model.h"
#include "plan/table_stats.h"

namespace smoothscan {

class MemoryBroker;
class ScanSharingCoordinator;

enum class PathKind {
  kFullScan,
  kIndexScan,
  kSortScan,
  kSwitchScan,
  kSmoothScan,
  /// Cooperative circular scan shared with concurrent same-table queries
  /// (src/sharing/). Needs PathRequest::sharing; MakePath falls back to
  /// FullScan without it.
  kSharedScan,
  /// Run-encoded scan over the table's compressed sibling extent
  /// (src/compress/). Needs PathRequest::extent; MakePath falls back to
  /// FullScan without one (or when the extent was invalidated by a publish
  /// after planning).
  kCompressedScan,
};

/// Number of PathKind values (sizing per-path counters). Derived from the
/// last enumerator so adding a kind cannot leave counters undersized.
inline constexpr int kNumPathKinds =
    static_cast<int>(PathKind::kCompressedScan) + 1;

const char* PathKindToString(PathKind kind);

/// What the chooser needs to know about a table's published compressed
/// extent (filled from CompressedExtentMap::Lookup by the caller; the plan
/// layer itself never touches src/compress/).
struct CompressedPathInfo {
  /// Compressed sibling pages — the measured compression ratio is
  /// heap_pages / pages, baked in by construction.
  uint64_t pages = 0;
  uint64_t tuples = 0;
  /// Tuples per key run (run density); 1.0 = incompressible key.
  double avg_run_length = 1.0;
};

/// Chooser knobs beyond the predicate itself.
struct ChooserOptions {
  /// The consumer requires index-key order.
  bool need_order = false;
  /// Degree of parallelism available to the plan. Simulated cost is
  /// DOP-invariant by design (see parallel_scan.h); the knob only changes the
  /// *wall-clock* estimate, so with dop > 1 the chooser ranks paths by
  /// estimated_wall_cost instead.
  uint32_t dop = 1;
  /// A ScanSharingCoordinator is available to the executing engine. When the
  /// ranking favors the full scan anyway (the scan-bound regime), no
  /// interesting order is required and dop == 1 (the shared consumer drains
  /// serially), the chooser upgrades the choice to kSharedScan: a shared lap
  /// costs at most a solo pass and attaching to an in-flight scan costs a
  /// fraction of one.
  bool sharing_available = false;
  /// The table's current compressed extent, when one is published (null:
  /// no compressed tier, or invalidated — the path is simply not offered,
  /// which is the graceful-staleness fallback). Borrowed for the call.
  const CompressedPathInfo* compressed = nullptr;
  /// Calibrated per-path CPU constants. Null (default) ranks on I/O alone,
  /// exactly as before; non-null adds each candidate's CPU estimate so paths
  /// that trade CPU for I/O (the compressed tier) are priced fairly.
  const CalibratedCpuModel* cpu = nullptr;
};

/// The optimizer's verdict for one selection.
struct PlanChoice {
  PathKind kind = PathKind::kFullScan;
  double estimated_selectivity = 0.0;
  uint64_t estimated_cardinality = 0;
  /// Simulated-time estimate (identical at every DOP).
  double estimated_cost = 0.0;
  /// Wall-clock estimate under `dop` workers (Amdahl over the path's serial
  /// prolog fraction). Equals estimated_cost at dop = 1.
  double estimated_wall_cost = 0.0;
  uint32_t dop = 1;
};

class AccessPathChooser {
 public:
  /// `need_order`: the consumer requires index-key order. A full scan (and,
  /// in the blocking sense, a sort scan) then pays a posterior sort, priced
  /// here as a CPU surcharge proportional to n log n.
  static PlanChoice Choose(const TableStats& stats, const CostModel& model,
                           int64_t lo, int64_t hi, bool need_order);

  /// Degree-of-parallelism-aware variant (see ChooserOptions::dop).
  static PlanChoice Choose(const TableStats& stats, const CostModel& model,
                           int64_t lo, int64_t hi,
                           const ChooserOptions& options);
};

/// Everything MakePath needs to build a read's access path.
struct PathRequest {
  PathKind kind = PathKind::kFullScan;
  const BPlusTree* index = nullptr;
  ScanPredicate predicate;
  /// The consumer requires index-key order.
  bool need_order = false;
  /// Switch Scan's cardinality threshold.
  uint64_t estimate = 0;
  /// 0: the serial operator. >= 1: the morsel-parallel variant with this
  /// many workers, or the serial operator when the combination has none.
  uint32_t dop = 0;
  /// Worker pool of the parallel variant (null: the scan owns one).
  TaskScheduler* scheduler = nullptr;
  /// Cooperative scan sharing (null: solo). Serves kSharedScan, serial
  /// kCompressedScan and serial Smooth Scan's common Page ID Cache.
  ScanSharingCoordinator* sharing = nullptr;
  /// The table's current compressed extent (null: none published).
  CompressedExtentRef extent;
  /// Memory broker every Smooth Scan's Result Cache registers with (null:
  /// ungoverned).
  MemoryBroker* broker = nullptr;
};

/// A built access path and what was actually built.
struct BuiltPath {
  std::unique_ptr<AccessPath> path;
  /// The kind built: the requested one, or kFullScan when a shared scan has
  /// no coordinator (or order is needed) or a compressed scan no extent.
  PathKind kind = PathKind::kFullScan;
  /// The morsel-driven parallel variant was built.
  bool parallel = false;
  /// The path consumes a cooperative circular scan (shared full or shared
  /// compressed scan).
  bool shared = false;
};

/// Builds the access path for `request` (see PathRequest). The path charges
/// the engine's context until the caller SetExecContext()s it — a parallel
/// path included. Smooth Scan is always the paper's preferred Eager + Elastic
/// configuration.
BuiltPath MakePath(const PathRequest& request);

/// Serial, solo shorthand: MakePath({kind, index, predicate, need_order,
/// estimate}).path — kSharedScan and kCompressedScan build a FullScan.
std::unique_ptr<AccessPath> MakePath(PathKind kind, const BPlusTree* index,
                                     const ScanPredicate& predicate,
                                     bool need_order, uint64_t estimate);

/// Materializes the morsel-driven parallel variant of `kind`, or null when
/// the combination has no parallel form (order-preserving consumers; the
/// non-eager Smooth Scan triggers keep their serial operator; shared and
/// compressed scans, which MakePath(PathRequest) handles). `parallel.dop` may
/// be 1 — the same morsel machinery on one worker, same simulated cost.
std::unique_ptr<ParallelScan> MakeParallelPath(
    PathKind kind, const BPlusTree* index, const ScanPredicate& predicate,
    bool need_order, uint64_t estimate, const ParallelScanOptions& parallel);

}  // namespace smoothscan

#endif  // SMOOTHSCAN_PLAN_ACCESS_PATH_CHOOSER_H_
