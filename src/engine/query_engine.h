// QueryEngine: concurrent multi-query execution over one shared substrate —
// the workload-level layer of the paper's robustness story. A server facing
// many queries with mis-estimated selectivities must not cliff, so the engine
// runs *streams* of queries, not one query, over the shared TaskScheduler
// (intra-query morsel work) and the shared BufferPool (page residency and
// pinning), while every query charges its own accounting stack
// (PrivateContext, see exec_context.h) — which is what keeps each query's
// simulated cost bit-identical to a solo cold run at any admission level.
//
// Control plane vs. data plane:
//   * SubmitSpec() appends the query to a submission queue with two lanes —
//     a FIFO batch lane and an SLA lane that jumps it (admission-level
//     priority, the workload analogue of the paper's SLA-driven trigger).
//   * Admission control caps the number of *concurrently admitted* queries:
//     the engine owns `max_admitted` executor threads, each running at most
//     one query end to end, so the cap holds by construction. Queued queries
//     accrue queue-wait time, reported per query.
//   * Intra-query parallel leaves (QuerySpec::dop >= 1) submit their morsels
//     to the shared TaskScheduler; the scheduler's round-robin deal and work
//     stealing interleave morsels of *different* queries across one fixed
//     worker pool, so no single query monopolizes the cores.
//
// Determinism contract: admission order, lane priority and scheduling change
// *when* a query runs and how long it waits — never what it computes or what
// it is charged. The concurrent differential test pins this: equal result
// multisets and bit-identical per-query simulated cost between a solo run and
// a run with 8 concurrently admitted queries.

#ifndef SMOOTHSCAN_ENGINE_QUERY_ENGINE_H_
#define SMOOTHSCAN_ENGINE_QUERY_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/latch_rank.h"
#include "common/thread_annotations.h"
#include "common/tuple_batch.h"
#include "compress/compressed_extent_map.h"
#include "mem/memory_broker.h"
#include "plan/access_path_chooser.h"
#include "storage/exec_context.h"
#include "write/table_version.h"
#include "write/table_writer.h"

namespace smoothscan {

class ScanSharingCoordinator;

namespace obs {
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
class TraceCollector;
}  // namespace obs

/// Submission lanes. kSla queries are admitted before any queued kBatch
/// query; within a lane admission is FIFO. With a ScanSharingCoordinator
/// configured, the batch lane is additionally *share-aware*: when a shared
/// scan is in flight over some table, a queued share-eligible query on the
/// same table is admitted ahead of older batch queries, so same-table
/// arrivals group onto the one cooperative scan instead of queueing behind
/// unrelated work and missing the lap. The jump is aging-bounded: a query
/// bypassed too many times is admitted next regardless, so a steady
/// hot-spot stream cannot starve unrelated batch work.
enum class QueryLane { kBatch = 0, kSla = 1 };

const char* QueryLaneToString(QueryLane lane);

/// Bounded, two-way batch exchange between an executing query and the client
/// holding its QueryHandle — the streaming half of the Session API. Batches
/// flow both ways so the result path allocates nothing in steady state. The
/// stream is a ring of `window` batch slots: the executor Pushes each result
/// batch into the tail slot (blocking while the window is full) and takes
/// back what the slot held — the batch the client last handed back, cleared
/// with its row and Value storage intact — to refill. The handle Pops by
/// swapping the head batch into its own; the batch it held before stays in
/// the slot for the producer. So at most one window of batches is recycled,
/// and only batches of the producer's capacity are handed to it. Closing the
/// consumer side unblocks the producer and turns further pushes into drops,
/// so an abandoned or cancelled stream never wedges an executor. Streaming
/// changes only *where* batches go, never what the query is charged: the
/// blocking adds wall time, not simulated cost.
class ResultStream {
 public:
  explicit ResultStream(size_t max_batches = 4)
      : cap_(max_batches == 0 ? 1 : max_batches), ring_(cap_) {}
  ResultStream(const ResultStream&) = delete;
  ResultStream& operator=(const ResultStream&) = delete;

  /// Producer (engine executor): enqueue `*batch`; blocks while the window
  /// is full and the consumer is still attached. On return `*batch` is an
  /// empty batch of the same capacity to refill, recycled when the consumer
  /// handed one back. With the consumer gone the rows are dropped and the
  /// batch keeps its own storage.
  void Push(TupleBatch* batch) {
    latch::UniqueLatch lock(mu_);
    while (!closed_ && count_ >= cap_) cv_.wait(lock);
    if (closed_) {  // Consumer gone: drop, keep draining.
      batch->Clear();
      return;
    }
    const size_t capacity = batch->capacity();
    std::swap(ring_[(head_ + count_) % cap_], *batch);
    ++count_;
    // Only a batch of the producer's own capacity is refilled.
    if (batch->capacity() != capacity) *batch = TupleBatch(capacity);
    cv_.notify_all();
  }

  /// Producer: no further batches (normal end, error, or cancellation).
  void FinishProducer() {
    latch::LatchGuard lock(mu_);
    finished_ = true;
    // Nothing will refill the recycled batches in the idle slots.
    for (size_t i = count_; i < cap_; ++i) {
      ring_[(head_ + i) % cap_] = TupleBatch();
    }
    cv_.notify_all();
  }

  /// Consumer (QueryHandle): swap the next batch into `*out`; false once the
  /// producer finished and the queue drained. The batch `*out` held before
  /// goes back to the producer (which drops it instead if its capacity
  /// differs); its rows are gone either way.
  bool Pop(TupleBatch* out) {
    TupleBatch spare;  // Destroyed after the latch is released.
    latch::UniqueLatch lock(mu_);
    while (count_ == 0 && !finished_) cv_.wait(lock);
    if (count_ == 0) return false;
    TupleBatch& slot = ring_[head_];
    out->Clear();
    std::swap(*out, slot);
    if (finished_) std::swap(spare, slot);  // Nobody will refill it.
    head_ = (head_ + 1) % cap_;
    --count_;
    cv_.notify_all();
    return true;
  }

  /// Consumer: stop consuming (cancel / handle teardown). Idempotent.
  void CloseConsumer() {
    latch::LatchGuard lock(mu_);
    closed_ = true;
    for (TupleBatch& slot : ring_) slot = TupleBatch();
    count_ = 0;
    cv_.notify_all();
  }

 private:
  mutable latch::Latch mu_{latch::LatchRank::kResultStream,
                           "ResultStream::mu_"};
  std::condition_variable_any cv_;
  const size_t cap_;
  /// `count_` queued batches from `head_`; the idle slots hold the batches
  /// the consumer handed back (or empty ones).
  std::vector<TupleBatch> ring_ GUARDED_BY(mu_);
  size_t head_ GUARDED_BY(mu_) = 0;
  size_t count_ GUARDED_BY(mu_) = 0;
  bool finished_ GUARDED_BY(mu_) = false;
  bool closed_ GUARDED_BY(mu_) = false;
};

/// One query: a selection over an indexed table, with either a fixed access
/// path or the cost-based chooser run against (possibly lying) statistics —
/// or, when `writer` is set, a *write query*: a batch of INSERT / UPDATE /
/// DELETE ops applied through the TableWriter.
struct QuerySpec {
  const BPlusTree* index = nullptr;
  ScanPredicate predicate;

  /// Write query: `write_ops` are applied via this writer as one
  /// admission-controlled batch (read fields are ignored; `index` may stay
  /// null). Requires QueryEngineOptions::versions — the snapshot machinery
  /// is what keeps concurrent readers consistent.
  TableWriter* writer = nullptr;
  std::vector<WriteOp> write_ops;

  /// Pick the path with AccessPathChooser over `stats` + `cost_model` (both
  /// required then); the estimate handed to the path (Switch Scan's
  /// threshold) is the chooser's — faithfully wrong when the stats are
  /// corrupted. When false, `kind` and `estimate` are used as given.
  bool use_chooser = false;
  PathKind kind = PathKind::kSmoothScan;
  const TableStats* stats = nullptr;
  const CostModel* cost_model = nullptr;
  uint64_t estimate = 0;

  bool need_order = false;
  /// 0: the serial operator. >= 1: the morsel-driven parallel variant with
  /// this many workers on the engine's shared scheduler (serial fallback when
  /// the combination has no parallel form).
  uint32_t dop = 0;
  QueryLane lane = QueryLane::kBatch;
  /// Collect column-0 values into QueryResult::keys (differential tests).
  bool collect_keys = false;
  /// Opt out of the engine's scan sharing for this query (kSharedScan plans
  /// fall back to FullScan, Smooth Scan runs solo, and the share-aware
  /// admission never reorders it). No effect without a coordinator.
  bool allow_sharing = true;

  // --- wired by Session (engine/session.h); not part of the client surface.
  /// Result batches are pushed into this stream as they are produced, and
  /// the executor refills the recycled batch each push returns (owned by the
  /// QueryHandle; must outlive the query's execution — the handle's Wait()
  /// is the synchronization point).
  ResultStream* stream = nullptr;
  /// Invoked exactly once per query, after its record is done (completion or
  /// cancellation), from a thread holding no engine latches. The Session's
  /// outstanding-window bookkeeping.
  std::function<void(uint64_t /*id*/)> on_complete;
};

/// Per-query accounting, the workload-level analogue of bench RunMetrics.
struct QueryMetrics {
  double queue_wait_ms = 0.0;  ///< Submit → admission.
  double exec_ms = 0.0;        ///< Admission → completion (wall).
  double latency_ms = 0.0;     ///< Submit → completion (wall).
  double sim_time = 0.0;       ///< Simulated cost (io_time + cpu_time).
  double io_time = 0.0;
  double cpu_time = 0.0;
  uint64_t io_requests = 0;
  uint64_t random_ios = 0;
  uint64_t seq_ios = 0;
  uint64_t pages_read = 0;
  uint64_t tuples = 0;
  PathKind kind = PathKind::kFullScan;  ///< Path actually run.
  bool parallel = false;                ///< Morsel-driven leaf was used.
  bool write = false;                   ///< This was a write query.
  QueryLane lane = QueryLane::kBatch;
  /// Peak execution-memory bytes charged to the query's QueryMemoryScope
  /// (0 when the engine runs without a broker/quota).
  uint64_t mem_peak_bytes = 0;
  /// Times a charge pushed the scope past its per-query quota. Breaches
  /// shed batch storage on release — they never fail the query.
  uint64_t mem_quota_breaches = 0;
  /// The query was cancelled: in-queue (never admitted — exec_ms stays 0 and
  /// `kind` is the spec's as given) or mid-execution (partial charges up to
  /// the cancellation point are reported; a shared-scan consumer Detaches
  /// mid-lap without perturbing its peers).
  bool cancelled = false;
};

struct QueryResult {
  Status status = Status::OK();
  QueryMetrics metrics;
  std::vector<int64_t> keys;  ///< Column-0 values (QuerySpec::collect_keys).
};

struct QueryEngineOptions {
  /// Cap on concurrently-admitted queries (= executor threads).
  uint32_t max_admitted = 4;
  /// Executors (of the `max_admitted`) that pop *only* the SLA lane. With a
  /// reserve, an SLA arrival never waits behind a long batch query occupying
  /// every executor — the Crescando-style latency floor the network server's
  /// overload bench asserts. 0 (default) keeps the historical behavior: the
  /// SLA lane only jumps the queue. Must be < max_admitted.
  uint32_t sla_reserved_slots = 0;
  /// Shared data-plane worker pool for intra-query morsels. Null: a query
  /// with dop >= 1 spins up a private pool (standalone use; prefer sharing).
  TaskScheduler* scheduler = nullptr;
  /// Cross-query scan sharing (src/sharing/): kSharedScan plans attach to
  /// the coordinator's cooperative circular scans, the chooser may upgrade
  /// full scans to kSharedScan, Smooth Scan queries feed the per-table
  /// shared Page ID Cache, and batch admission becomes share-aware. Null
  /// disables all of it; the coordinator must outlive the engine.
  ScanSharingCoordinator* sharing = nullptr;
  /// Snapshot machinery for mutable tables (src/write/): read queries hold a
  /// table ReadLease for their execution (scans see a frozen snapshot at
  /// solo-identical cost), write specs become admissible, and — when
  /// `sharing` is also set — the registry's publish hook retires parked
  /// shared-scan groups whose chunk decomposition a publish staled. Null
  /// keeps the engine read-only, with zero overhead. Must outlive the
  /// engine (and, because the publish hook is wired at construction, the
  /// coordinator when both are set).
  TableVersionRegistry* versions = nullptr;
  /// Compressed read tier (src/compress/): the chooser is offered the
  /// table's published compressed extent (priced with the calibrated CPU
  /// model), kCompressedScan plans materialize over it — shared across
  /// concurrent queries when `sharing` is set, morsel-parallel at dop >= 1 —
  /// and the registry's publish hook (requires `versions`) invalidates and
  /// rebuilds the extent so a compressed plan never reads a stale sibling.
  /// Null disables the tier. Must outlive the engine.
  CompressedExtentMap* compressed = nullptr;
  /// Unified memory broker (src/mem/): the engine registers the shared
  /// buffer pool's frames, and every query executes under a QueryMemoryScope
  /// charging its batch-pool memory here. Governance only — simulated cost
  /// is bit-identical with and without a broker. Must outlive the engine.
  MemoryBroker* broker = nullptr;
  /// Per-query execution-memory quota (batch-pool bytes). A breach sheds the
  /// query's recycled batch storage instead of failing it. Unlimited by
  /// default; meaningful with or without `broker`.
  uint64_t query_quota_bytes = UINT64_MAX;
  /// Unified metrics registry (src/obs/): the engine registers its admission
  /// counters/gauges/latency histograms, attaches the shared buffer pool's
  /// and each query's batch-pool sinks, and every access path registers its
  /// own live counters (SmoothScan morph steps, ResultCache spills). Pure
  /// bookkeeping — simulated per-query cost is bit-identical with and
  /// without a registry. Null disables. Must outlive the engine.
  obs::MetricsRegistry* metrics = nullptr;
  /// Per-query trace spans + morph-event timeline (src/obs/), exported as
  /// Chrome trace-event JSON. Off (null) by default; when set, every query
  /// gets a submit instant and a query/lease/scan span tree, parallel leaves
  /// stamp per-morsel worker spans, and SmoothScan emits its morph timeline.
  /// Near-zero cost disabled, bookkeeping only when enabled. Must outlive
  /// the engine.
  obs::TraceCollector* tracing = nullptr;
};

class QueryEngine {
 public:
  using QueryId = uint64_t;

  QueryEngine(Engine* engine, QueryEngineOptions options);
  /// Drains queued and running queries, then joins the executors.
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // Spec-level submission — the *internal* surface beneath the Session /
  // QueryHandle client API (engine/session.h). In-tree subsystems (Session,
  // the network server's sessions, differential tests) call these; client
  // code opens a Session.

  /// Enqueues the query; returns immediately with its completion handle.
  QueryId SubmitSpec(QuerySpec spec) EXCLUDES(mu_);

  /// Blocks until query `id` completes and takes its result (each id can be
  /// waited on exactly once).
  QueryResult WaitSpec(QueryId id) EXCLUDES(mu_);

  /// Cancels query `id`. In-queue: the query is removed unadmitted and its
  /// record completes immediately with StatusCode::kCancelled (queue-wait
  /// accounted, zero execution charges). Mid-execution: a cancel flag is
  /// raised that the executor polls between result batches — a shared-scan
  /// consumer Detaches mid-lap (the existing cancelled-consumer path), any
  /// other read path closes early, and the record completes with kCancelled
  /// and the charges accrued so far. Write queries cancel in-queue only; a
  /// batch mid-Apply runs to completion (its mutations are real). Returns
  /// false when the query already completed (or the id is unknown) — the
  /// result must still be WaitSpec()ed either way.
  bool Cancel(QueryId id) EXCLUDES(mu_);

  /// Blocks until every query submitted so far has completed. Completion
  /// records are reclaimed by WaitSpec() alone — a fire-and-forget caller
  /// that only ever drains should still wait each id, or records accumulate.
  void DrainAll() EXCLUDES(mu_);

  // Observability (values are instantaneous snapshots).
  size_t queue_depth() const EXCLUDES(mu_);
  uint32_t admitted() const EXCLUDES(mu_);  ///< Queries executing right now.
  /// High-water mark; never exceeds the cap.
  uint32_t peak_admitted() const EXCLUDES(mu_);
  uint64_t completed() const EXCLUDES(mu_);
  const QueryEngineOptions& options() const { return options_; }

 private:
  struct Pending {
    QueryId id = 0;
    QuerySpec spec;
    std::chrono::steady_clock::time_point submitted;
    /// Times a younger share-eligible query was admitted over this one (the
    /// share-aware pop's aging bound: see kMaxShareBypasses).
    uint32_t bypassed = 0;
    /// This query will resolve to the cooperative shared scan (explicit
    /// kSharedScan, or the chooser's actual verdict — computed once at
    /// Submit), so admitting it while a shared scan runs on its table joins
    /// the live lap.
    bool share_eligible = false;
  };
  struct Record {
    QueryResult result;
    bool done = false;
  };

  /// `sla_only` executors (the first `sla_reserved_slots` of the pool) pop
  /// nothing but the SLA lane.
  void ExecutorLoop(bool sla_only) EXCLUDES(mu_);
  /// `id` attributes the query's trace spans and morph instants; it never
  /// influences planning or accounting. `cancel` (never null from the
  /// executor) is polled between result batches.
  QueryResult Execute(QueryId id, QuerySpec spec,
                      const std::atomic<bool>* cancel) EXCLUDES(mu_);
  QueryResult ExecuteWrite(QueryId id, QuerySpec spec,
                           const std::atomic<bool>* cancel);
  /// Whether the query will resolve to a shared scan (Pending::share_eligible
  /// — runs the chooser for use_chooser specs, so a selective query that
  /// will pick an index path never jumps the FIFO for nothing).
  bool ShareEligible(const QuerySpec& spec) const;
  /// The kind a read plans to run: `spec.kind`, or for use_chooser specs the
  /// chooser's pick over the spec's statistics (then `*estimate`, when
  /// given, becomes its cardinality estimate).
  PathKind PlanKind(const QuerySpec& spec, bool sharing_available,
                    const CompressedExtentRef& extent,
                    uint64_t* estimate) const;
  /// The table's published compressed extent, when the tier is enabled and
  /// serves this spec (key-column predicate, no interesting order). Null
  /// otherwise — including right after a publish invalidated it, which is
  /// the graceful-staleness fallback to the heap paths.
  CompressedExtentRef CompressedExtentFor(const QuerySpec& spec) const;

  Engine* engine_;
  QueryEngineOptions options_;
  // Registry handles, resolved once in the constructor (all null without
  // options_.metrics). Engine-level admission telemetry.
  obs::Counter* c_submitted_ = nullptr;
  obs::Counter* c_completed_ = nullptr;
  obs::Counter* c_cancelled_ = nullptr;
  obs::Counter* c_compressed_fallbacks_ = nullptr;
  obs::Gauge* g_lane_depth_[2] = {nullptr, nullptr};  ///< By QueryLane.
  obs::Gauge* g_running_ = nullptr;
  obs::Histogram* h_queue_wait_us_ = nullptr;
  obs::Histogram* h_exec_us_ = nullptr;
  obs::Histogram* h_latency_us_ = nullptr;
  /// Buffer-pool counters, attached to every pool that does hit/miss
  /// accounting on this engine's behalf: each query's private pool and every
  /// parallel morsel pool. The shared pool gets it too, but only communal
  /// traffic (write-back flushes) moves its stats — mirror pins are
  /// unaccounted by design. Empty (all null) without options_.metrics.
  BufferPoolMetricsSink bp_sink_;
  /// Broker charge for the shared buffer pool's frame memory (capacity
  /// bytes, charged once for the engine's lifetime).
  MemoryBroker::Consumer pool_consumer_;
  /// Registry publish-hook registration (0 = none wired).
  uint64_t publish_hook_token_ = 0;

  /// Control-plane latch (admission queue + completion records). Top of the
  /// hierarchy: nothing below it (executors release it before running a
  /// query, which acquires every other latch in the engine).
  mutable latch::Latch mu_{latch::LatchRank::kQueryEngine,
                           "QueryEngine::mu_"};
  std::condition_variable_any cv_submit_;  ///< Executors wait for work here.
  std::condition_variable_any cv_done_;    ///< Wait()/Drain() wait here.
  std::deque<Pending> lanes_[2] GUARDED_BY(mu_);  ///< Indexed by QueryLane.
  std::unordered_map<QueryId, Record> records_ GUARDED_BY(mu_);
  QueryId next_id_ GUARDED_BY(mu_) = 1;
  /// Tables with a shared scan executing right now (value = running count);
  /// the share-aware batch pop admits matching queued queries first.
  std::unordered_map<FileId, uint32_t> running_shared_ GUARDED_BY(mu_);
  /// Cancel flags of the queries executing right now. Each flag lives on its
  /// executor's stack; registered in the same critical section as the pop
  /// (so Cancel never finds a query in neither the lanes nor here while it
  /// is still live) and deregistered in the completion section.
  std::unordered_map<QueryId, std::atomic<bool>*> running_cancel_
      GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
  uint32_t admitted_now_ GUARDED_BY(mu_) = 0;
  uint32_t peak_admitted_ GUARDED_BY(mu_) = 0;
  /// Submitted, not yet completed.
  uint64_t outstanding_ GUARDED_BY(mu_) = 0;
  uint64_t completed_ GUARDED_BY(mu_) = 0;

  std::vector<std::thread> executors_;
};

/// Nearest-rank percentile of `values` (q in [0, 1]); 0 on empty input.
/// Sorts a copy — fine for per-run latency vectors.
double LatencyPercentile(std::vector<double> values, double q);

}  // namespace smoothscan

#endif  // SMOOTHSCAN_ENGINE_QUERY_ENGINE_H_
