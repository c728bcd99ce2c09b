// Scan-sharing differential testing: consumers attached to one cooperative
// circular scan must produce exactly the multiset a solo run produces — for
// 8 concurrent shared consumers across 3 selectivities, while the 5 classic
// paths run beside them with bit-identical solo accounting (sharing must not
// perturb anyone else's private stack). Also covers: late attach mid-scan
// with wraparound, detach after exactly one lap, the single-consumer
// degenerate case (== a plain full scan's I/O), coordinator teardown with a
// cancelled consumer, the shared-SmoothScan common Page ID Cache, the
// chooser's upgrade to kSharedScan, and the engine's share-aware admission.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "exec/task_scheduler.h"
#include "sharing/shared_scan_path.h"
#include "workload/workload_driver.h"

namespace smoothscan {
namespace {

struct CostSnapshot {
  IoStats io;
  double cpu = 0.0;
  uint64_t tuples = 0;

  void ExpectBitIdentical(const QueryMetrics& m, const char* label) const {
    EXPECT_EQ(io.io_requests, m.io_requests) << label;
    EXPECT_EQ(io.random_ios, m.random_ios) << label;
    EXPECT_EQ(io.seq_ios, m.seq_ios) << label;
    EXPECT_EQ(io.pages_read, m.pages_read) << label;
    EXPECT_EQ(io.io_time, m.io_time) << label;
    EXPECT_EQ(cpu, m.cpu_time) << label;
    EXPECT_EQ(tuples, m.tuples) << label;
  }
};

class SharedScanTest : public ::testing::Test {
 protected:
  SharedScanTest() {
    EngineOptions eo;
    eo.buffer_pool_pages = 512;  // Holds the whole ~330-page table.
    engine_ = std::make_unique<Engine>(eo);
    MicroBenchSpec spec;
    spec.num_tuples = 30000;
    spec.value_max = 4000;
    spec.seed = 17;
    db_ = std::make_unique<MicroBenchDb>(engine_.get(), spec);
  }

  std::multiset<int64_t> Oracle(const ScanPredicate& pred) const {
    std::multiset<int64_t> oracle;
    db_->heap().ForEachDirect([&](Tid, const Tuple& t) {
      if (pred.Matches(t)) oracle.insert(t[0].AsInt64());
    });
    return oracle;
  }

  /// Drains `path` (already constructed) and returns the column-0 multiset.
  static std::multiset<int64_t> Drain(AccessPath* path) {
    EXPECT_TRUE(path->Open().ok());
    std::multiset<int64_t> keys;
    TupleBatch batch;
    while (path->NextBatch(&batch)) {
      for (size_t i = 0; i < batch.size(); ++i) {
        keys.insert(batch.row(i)[0].AsInt64());
      }
    }
    path->Close();
    return keys;
  }

  CostSnapshot SoloRun(const QuerySpec& spec) {
    engine_->ColdRestart();
    engine_->disk().ResetAll();
    engine_->cpu().Reset();
    std::unique_ptr<AccessPath> path =
        MakePath(spec.kind, spec.index, spec.predicate, spec.need_order,
                 spec.estimate);
    EXPECT_TRUE(path->Open().ok());
    CostSnapshot snap;
    TupleBatch batch;
    while (path->NextBatch(&batch)) snap.tuples += batch.size();
    path->Close();
    snap.io = engine_->disk().stats();
    snap.cpu = engine_->cpu().time();
    return snap;
  }

  QuerySpec Spec(PathKind kind, double selectivity) const {
    QuerySpec spec;
    spec.index = &db_->index();
    spec.predicate = db_->PredicateForSelectivity(selectivity);
    spec.kind = kind;
    spec.estimate = 100;
    spec.collect_keys = true;
    return spec;
  }

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<MicroBenchDb> db_;
};

constexpr PathKind kClassicPaths[] = {PathKind::kFullScan,
                                      PathKind::kIndexScan,
                                      PathKind::kSortScan,
                                      PathKind::kSwitchScan,
                                      PathKind::kSmoothScan};
constexpr double kSelectivities[] = {0.001, 0.05, 0.5};

// 8 shared consumers per selectivity run concurrently with all 5 classic
// paths: every shared result multiset equals the solo oracle, and the
// classic paths — opted out of sharing — keep their bit-identical solo
// costs, proving the subsystem perturbs nobody who does not use it.
TEST_F(SharedScanTest, AttachedResultsMatchSoloAcrossPathsAndSelectivities) {
  std::vector<QuerySpec> classic;
  std::vector<CostSnapshot> solo;
  std::vector<std::multiset<int64_t>> classic_oracles;
  for (const PathKind kind : kClassicPaths) {
    for (const double sel : kSelectivities) {
      classic.push_back(Spec(kind, sel));
      classic.back().allow_sharing = false;
      solo.push_back(SoloRun(classic.back()));
      classic_oracles.push_back(Oracle(classic.back().predicate));
      ASSERT_EQ(solo.back().tuples, classic_oracles.back().size());
    }
  }
  std::vector<std::multiset<int64_t>> shared_oracles;
  for (const double sel : kSelectivities) {
    shared_oracles.push_back(Oracle(db_->PredicateForSelectivity(sel)));
  }

  TaskScheduler scheduler(4);
  SharedScanOptions so;
  so.chunk_pages = 16;
  ScanSharingCoordinator coordinator(engine_.get(), so);
  QueryEngineOptions qeo;
  qeo.max_admitted = 8;
  qeo.scheduler = &scheduler;
  qeo.sharing = &coordinator;
  QueryEngine qe(engine_.get(), qeo);

  std::vector<QueryEngine::QueryId> shared_ids[3];
  for (size_t s = 0; s < 3; ++s) {
    for (int i = 0; i < 8; ++i) {
      shared_ids[s].push_back(
          qe.SubmitSpec(Spec(PathKind::kSharedScan, kSelectivities[s])));
    }
  }
  std::vector<QueryEngine::QueryId> classic_ids;
  for (const QuerySpec& spec : classic) classic_ids.push_back(qe.SubmitSpec(spec));

  for (size_t s = 0; s < 3; ++s) {
    for (const QueryEngine::QueryId id : shared_ids[s]) {
      const QueryResult result = qe.WaitSpec(id);
      ASSERT_TRUE(result.status.ok());
      EXPECT_EQ(result.metrics.kind, PathKind::kSharedScan);
      const std::multiset<int64_t> got(result.keys.begin(),
                                       result.keys.end());
      EXPECT_EQ(got, shared_oracles[s]) << "shared, sel " << kSelectivities[s];
    }
  }
  for (size_t i = 0; i < classic_ids.size(); ++i) {
    const QueryResult result = qe.WaitSpec(classic_ids[i]);
    ASSERT_TRUE(result.status.ok());
    const std::multiset<int64_t> got(result.keys.begin(), result.keys.end());
    EXPECT_EQ(got, classic_oracles[i]) << "classic spec " << i;
    solo[i].ExpectBitIdentical(result.metrics,
                               PathKindToString(classic[i].kind));
  }
  EXPECT_GT(coordinator.stats().consumers_attached, 0u);
  EXPECT_EQ(coordinator.stats().active_consumers, 0u);
  EXPECT_EQ(engine_->pool().pinned_pages(), 0u);
}

// A consumer attaching while another is mid-lap starts at the scan's current
// chunk (start_seq > 0) and wraps around — and still produces the full solo
// multiset.
TEST_F(SharedScanTest, LateAttachWrapsAround) {
  const ScanPredicate pred = db_->PredicateForSelectivity(1.0);
  const std::multiset<int64_t> oracle = Oracle(pred);

  SharedScanOptions so;
  so.chunk_pages = 8;
  so.drift_chunks = 8;
  ScanSharingCoordinator coordinator(engine_.get(), so);
  SharedScanPath a(&coordinator, &db_->heap(), pred);
  SharedScanPath b(&coordinator, &db_->heap(), pred);

  ASSERT_TRUE(a.Open().ok());
  std::multiset<int64_t> got_a;
  TupleBatch batch;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(a.NextBatch(&batch));
    for (size_t j = 0; j < batch.size(); ++j) {
      got_a.insert(batch.row(j)[0].AsInt64());
    }
  }
  EXPECT_GT(a.chunks_consumed(), 0u);

  ASSERT_TRUE(b.Open().ok());
  EXPECT_GT(b.start_seq(), 0u) << "late arrival must attach mid-scan";
  // Interleave the two consumers (single thread), staying inside the drift
  // bound, until both laps complete.
  std::multiset<int64_t> got_b;
  bool a_done = false;
  bool b_done = false;
  while (!a_done || !b_done) {
    if (!a_done) {
      if (a.NextBatch(&batch)) {
        for (size_t j = 0; j < batch.size(); ++j) {
          got_a.insert(batch.row(j)[0].AsInt64());
        }
      } else {
        a_done = true;
      }
    }
    if (!b_done) {
      if (b.NextBatch(&batch)) {
        for (size_t j = 0; j < batch.size(); ++j) {
          got_b.insert(batch.row(j)[0].AsInt64());
        }
      } else {
        b_done = true;
      }
    }
  }
  a.Close();
  b.Close();
  EXPECT_EQ(got_a, oracle);
  EXPECT_EQ(got_b, oracle);
  EXPECT_EQ(b.chunks_consumed(), b.lap_chunks());
  EXPECT_EQ(engine_->pool().pinned_pages(), 0u);
}

// One consumer alone is exactly a plain full scan: same pages read, same I/O
// requests, same sequential classification — the subsystem adds no I/O when
// there is nothing to share.
TEST_F(SharedScanTest, SingleConsumerDegeneratesToPlainScan) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.4);
  const std::multiset<int64_t> oracle = Oracle(pred);

  engine_->ColdRestart();
  IoStats before = engine_->disk().stats();
  FullScan full(&db_->heap(), pred);
  EXPECT_EQ(Drain(&full), oracle);
  const IoStats solo = engine_->disk().stats() - before;

  engine_->ColdRestart();
  SharedScanOptions so;
  so.chunk_pages = 32;  // == FullScan's default read-ahead window.
  ScanSharingCoordinator coordinator(engine_.get(), so);
  before = engine_->disk().stats();
  {
    SharedScanPath path(&coordinator, &db_->heap(), pred);
    EXPECT_EQ(Drain(&path), oracle);
    EXPECT_EQ(path.chunks_consumed(), path.lap_chunks());
  }
  const IoStats shared = engine_->disk().stats() - before;

  EXPECT_EQ(shared.pages_read, solo.pages_read);
  EXPECT_EQ(shared.io_requests, solo.io_requests);
  EXPECT_EQ(shared.seq_ios, solo.seq_ios);
  EXPECT_EQ(shared.random_ios, solo.random_ios);
  EXPECT_EQ(shared.io_time, solo.io_time);

  const SharedScanGroupStats gs =
      coordinator.GroupFor(&db_->heap())->stats();
  EXPECT_EQ(gs.chunks_produced, (db_->heap().num_pages() + 31) / 32);
  EXPECT_EQ(gs.pages_fetched, db_->heap().num_pages());
  EXPECT_EQ(gs.active_consumers, 0u);
  EXPECT_EQ(engine_->pool().pinned_pages(), 0u);
}

// Closing a consumer mid-lap (a cancelled query) releases its chunk claims;
// the surviving consumer finishes with full results, and the coordinator
// tears down cleanly with no leaked pins.
TEST_F(SharedScanTest, TeardownWithCancelledConsumer) {
  const ScanPredicate pred = db_->PredicateForSelectivity(1.0);
  const std::multiset<int64_t> oracle = Oracle(pred);
  {
    SharedScanOptions so;
    so.chunk_pages = 8;
    so.drift_chunks = 8;
    ScanSharingCoordinator coordinator(engine_.get(), so);
    SharedScanPath a(&coordinator, &db_->heap(), pred);
    SharedScanPath b(&coordinator, &db_->heap(), pred);

    ASSERT_TRUE(a.Open().ok());
    TupleBatch batch;
    ASSERT_TRUE(a.NextBatch(&batch));  // A is mid-chunk now.
    ASSERT_TRUE(b.Open().ok());        // B attaches while A is live...
    a.Close();  // ...and A is cancelled mid-lap, claims outstanding.
    EXPECT_LT(a.chunks_consumed(), a.lap_chunks());

    std::multiset<int64_t> got_b;
    while (b.NextBatch(&batch)) {
      for (size_t j = 0; j < batch.size(); ++j) {
        got_b.insert(batch.row(j)[0].AsInt64());
      }
    }
    b.Close();
    EXPECT_EQ(got_b, oracle);
    EXPECT_EQ(coordinator.stats().active_consumers, 0u);
  }  // Coordinator teardown with the cancelled consumer's claims released.
  EXPECT_EQ(engine_->pool().pinned_pages(), 0u);
}

// Re-Open starts a fresh lap and reproduces the same multiset.
TEST_F(SharedScanTest, CloseAndReOpenRestartsTheLap) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.2);
  const std::multiset<int64_t> oracle = Oracle(pred);
  ScanSharingCoordinator coordinator(engine_.get());
  SharedScanPath path(&coordinator, &db_->heap(), pred);
  EXPECT_EQ(Drain(&path), oracle);
  EXPECT_EQ(Drain(&path), oracle);  // Drain re-Opens.
  EXPECT_EQ(engine_->pool().pinned_pages(), 0u);
}

// Shared-SmoothScan mode: scans attached to the table's common Page ID Cache
// keep solo-identical results while later scans take peer-probed resident
// pages for free — aggregate charged I/O collapses instead of multiplying.
TEST_F(SharedScanTest, SharedSmoothScanFeedsCommonPageIdCache) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.3);
  const std::multiset<int64_t> oracle = Oracle(pred);
  engine_->ColdRestart();
  ScanSharingCoordinator coordinator(engine_.get());
  std::shared_ptr<SharedSmoothGroup> group =
      coordinator.SmoothSharingFor(&db_->heap());

  SmoothScanOptions shared_options;
  shared_options.shared_group = group;

  // First attached scan: pays the pass, publishes its probes (its private
  // stack mirrors residency into the engine's shared pool).
  PrivateContext qctx_a(engine_.get(), &engine_->pool());
  SmoothScan a(&db_->index(), pred, shared_options);
  a.SetExecContext(&qctx_a.ctx());
  EXPECT_EQ(Drain(&a), oracle);
  const uint64_t pages_a = qctx_a.disk().stats().pages_read;
  ASSERT_GT(pages_a, 0u);

  // Second attached scan: same results, but peer-probed resident pages are
  // free — it charges a fraction of the first scan's I/O.
  PrivateContext qctx_b(engine_.get(), &engine_->pool());
  SmoothScan b(&db_->index(), pred, shared_options);
  b.SetExecContext(&qctx_b.ctx());
  EXPECT_EQ(Drain(&b), oracle);
  EXPECT_GT(b.smooth_stats().shared_free_pages, 0u);
  EXPECT_LT(qctx_b.disk().stats().pages_read, pages_a / 2);

  // Control: an unattached scan on a fresh private stack re-pays everything.
  PrivateContext qctx_c(engine_.get(), &engine_->pool());
  SmoothScan c(&db_->index(), pred, SmoothScanOptions());
  c.SetExecContext(&qctx_c.ctx());
  EXPECT_EQ(Drain(&c), oracle);
  EXPECT_EQ(qctx_c.disk().stats().pages_read, pages_a);
}

// With a coordinator available and honest statistics favoring the full pass,
// the chooser upgrades to the shared scan — unless an interesting order is
// required.
TEST_F(SharedScanTest, ChooserUpgradesFullScanToShared) {
  const TableStats stats =
      TableStats::Compute(db_->heap(), MicroBenchDb::kIndexedColumn);
  CostModelParams params;
  params.num_tuples = db_->heap().num_tuples();
  params.tuple_size =
      8192 / (db_->heap().num_tuples() / db_->heap().num_pages());
  const CostModel model(params);
  const ScanPredicate pred = db_->PredicateForSelectivity(0.9);

  ChooserOptions with_sharing;
  with_sharing.sharing_available = true;
  EXPECT_EQ(AccessPathChooser::Choose(stats, model, pred.lo, pred.hi,
                                      with_sharing)
                .kind,
            PathKind::kSharedScan);
  EXPECT_EQ(
      AccessPathChooser::Choose(stats, model, pred.lo, pred.hi,
                                ChooserOptions())
          .kind,
      PathKind::kFullScan);
  ChooserOptions ordered = with_sharing;
  ordered.need_order = true;
  EXPECT_NE(AccessPathChooser::Choose(stats, model, pred.lo, pred.hi, ordered)
                .kind,
            PathKind::kSharedScan);
}

// Share-aware admission: while a shared scan is in flight over a table, a
// queued share-eligible query on that table is admitted ahead of an older
// ineligible batch query.
TEST_F(SharedScanTest, ShareAwareAdmissionGroupsSameTableArrivals) {
  ScanSharingCoordinator coordinator(engine_.get());
  QueryEngineOptions qeo;
  qeo.max_admitted = 2;
  qeo.sharing = &coordinator;
  QueryEngine qe(engine_.get(), qeo);

  std::atomic<bool> gate0{false};
  std::atomic<bool> gate_b{false};
  std::atomic<bool> started0{false};
  std::atomic<bool> started_b{false};

  // q0: a shared scan that parks at its first tuple — it keeps the table's
  // shared scan "in flight" while the contenders queue up.
  QuerySpec q0 = Spec(PathKind::kSharedScan, 0.5);
  q0.collect_keys = false;
  q0.predicate.residual = [&](const Tuple&) {
    thread_local bool arrived = false;
    if (!arrived) {
      arrived = true;
      started0.store(true);
      while (!gate0.load()) std::this_thread::yield();
    }
    return true;
  };
  const QueryEngine::QueryId id0 = qe.SubmitSpec(q0);
  while (!started0.load()) std::this_thread::yield();

  // qb occupies the second executor until both contenders are queued.
  QuerySpec qb = Spec(PathKind::kFullScan, 0.01);
  qb.collect_keys = false;
  qb.allow_sharing = false;
  qb.predicate.residual = [&](const Tuple&) {
    thread_local bool arrived = false;
    if (!arrived) {
      arrived = true;
      started_b.store(true);
      while (!gate_b.load()) std::this_thread::yield();
    }
    return true;
  };
  const QueryEngine::QueryId idb = qe.SubmitSpec(qb);
  while (!started_b.load()) std::this_thread::yield();

  // Contenders: q1 (older, not share-eligible) then q2 (share-eligible).
  QuerySpec q1 = Spec(PathKind::kFullScan, 0.01);
  q1.collect_keys = false;
  const QueryEngine::QueryId id1 = qe.SubmitSpec(q1);
  QuerySpec q2 = Spec(PathKind::kSharedScan, 0.5);
  q2.collect_keys = false;
  const QueryEngine::QueryId id2 = qe.SubmitSpec(q2);
  EXPECT_EQ(qe.queue_depth(), 2u);

  // Free one executor: the share-aware pop must admit q2, not q1.
  gate_b.store(true);
  while (qe.queue_depth() != 1) std::this_thread::yield();
  gate0.store(true);

  EXPECT_TRUE(qe.WaitSpec(idb).status.ok());
  EXPECT_TRUE(qe.WaitSpec(id0).status.ok());
  const QueryResult r1 = qe.WaitSpec(id1);
  const QueryResult r2 = qe.WaitSpec(id2);
  EXPECT_TRUE(r1.status.ok());
  EXPECT_TRUE(r2.status.ok());
  // q2 was admitted while q1 still queued behind the parked shared scan.
  EXPECT_LT(r2.metrics.queue_wait_ms, r1.metrics.queue_wait_ms);
}

// The workload driver's hot-spot phase through the shared policy: results
// flow, every query runs the shared path, aggregate fetches stay near one
// pass per wave instead of one pass per client.
TEST_F(SharedScanTest, HotSpotWorkloadSharesThePass) {
  ScanSharingCoordinator coordinator(engine_.get());
  QueryEngineOptions qeo;
  qeo.max_admitted = 4;
  qeo.sharing = &coordinator;
  QueryEngine qe(engine_.get(), qeo);
  WorkloadDriver driver(engine_.get(), db_.get(), &qe);

  engine_->ColdRestart();
  const IoStats before = engine_->disk().stats();
  WorkloadOptions wo;
  wo.clients = 4;
  wo.policy = DriverPolicy::kSharedScan;
  wo.phases = WorkloadOptions::HotSpotPhases(/*queries_per_client=*/1);
  const WorkloadReport report = driver.Run(wo);
  const IoStats shared_io = engine_->disk().stats() - before;

  EXPECT_EQ(report.queries, 4u);
  EXPECT_EQ(report.path_counts[static_cast<int>(PathKind::kSharedScan)], 4u);
  EXPECT_GT(report.tuples, 0u);
  // 4 concurrent same-table clients: well under 4 solo passes.
  EXPECT_LT(shared_io.pages_read, 3 * db_->heap().num_pages());
  EXPECT_EQ(engine_->pool().pinned_pages(), 0u);
}

}  // namespace
}  // namespace smoothscan
