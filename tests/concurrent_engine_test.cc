// Concurrent multi-query differential testing: N queries submitted to the
// QueryEngine at once must produce exactly the multisets and the
// *bit-identical* per-query simulated costs of solo serial runs — across
// all five access paths and admitted-query caps 1, 2 and 8. Also covers the
// admission cap (a barrier proves 8 queries genuinely execute concurrently),
// the SLA priority lane, chooser reuse per stream query, the shared-pool
// mirror, the closed-loop workload driver and the percentile helper.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "engine/session.h"
#include "exec/task_scheduler.h"
#include "obs/metrics.h"
#include "sharing/scan_sharing.h"
#include "workload/workload_driver.h"

namespace smoothscan {
namespace {

/// Per-query engine charges of one measured run.
struct CostSnapshot {
  IoStats io;
  double cpu = 0.0;
  uint64_t tuples = 0;

  void ExpectBitIdentical(const QueryMetrics& m, const char* label) const {
    EXPECT_EQ(io.io_requests, m.io_requests) << label;
    EXPECT_EQ(io.random_ios, m.random_ios) << label;
    EXPECT_EQ(io.seq_ios, m.seq_ios) << label;
    EXPECT_EQ(io.pages_read, m.pages_read) << label;
    EXPECT_EQ(io.io_time, m.io_time) << label;  // Exact, not NEAR.
    EXPECT_EQ(cpu, m.cpu_time) << label;        // Exact, not NEAR.
    EXPECT_EQ(tuples, m.tuples) << label;
  }
};

class ConcurrentEngineTest : public ::testing::Test {
 protected:
  ConcurrentEngineTest() {
    EngineOptions eo;
    eo.buffer_pool_pages = 512;
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

  /// The solo-run cost definition: serial path against the engine's own
  /// stack, cold, counters zeroed first (bit-identity is defined from a
  /// zeroed meter — see parallel_differential_test.cc).
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

  QuerySpec Spec(PathKind kind, double selectivity,
                 uint64_t estimate = 0) const {
    QuerySpec spec;
    spec.index = &db_->index();
    spec.predicate = db_->PredicateForSelectivity(selectivity);
    spec.kind = kind;
    spec.estimate = estimate;
    spec.collect_keys = true;
    return spec;
  }

  /// The engine's one broker charge for the shared buffer pool's frames.
  uint64_t FrameBytes() const {
    return uint64_t{engine_->options().buffer_pool_pages} *
           engine_->options().page_size;
  }

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<MicroBenchDb> db_;
};

constexpr PathKind kPaths[] = {PathKind::kFullScan, PathKind::kIndexScan,
                               PathKind::kSortScan, PathKind::kSwitchScan,
                               PathKind::kSmoothScan};
constexpr double kSelectivities[] = {0.001, 0.05, 0.5};

TEST_F(ConcurrentEngineTest, ConcurrentCostsBitIdenticalToSoloRuns) {
  // The full spec matrix: 5 paths x 3 selectivities (Switch Scan gets an
  // underestimate so some executions actually switch).
  std::vector<QuerySpec> specs;
  std::vector<CostSnapshot> solo;
  std::vector<std::multiset<int64_t>> oracles;
  for (const PathKind kind : kPaths) {
    for (const double sel : kSelectivities) {
      specs.push_back(Spec(kind, sel, /*estimate=*/100));
      solo.push_back(SoloRun(specs.back()));
      oracles.push_back(Oracle(specs.back().predicate));
      ASSERT_EQ(solo.back().tuples, oracles.back().size());
    }
  }

  TaskScheduler scheduler(4);
  for (const uint32_t cap : {1u, 2u, 8u}) {
    QueryEngineOptions qeo;
    qeo.max_admitted = cap;
    qeo.scheduler = &scheduler;
    QueryEngine qe(engine_.get(), qeo);

    // Everything in flight at once; admission interleaves the executions.
    std::vector<QueryEngine::QueryId> ids;
    for (const QuerySpec& spec : specs) ids.push_back(qe.SubmitSpec(spec));
    for (size_t i = 0; i < ids.size(); ++i) {
      const QueryResult result = qe.WaitSpec(ids[i]);
      ASSERT_TRUE(result.status.ok());
      const std::multiset<int64_t> got(result.keys.begin(),
                                       result.keys.end());
      EXPECT_EQ(got, oracles[i]) << "spec " << i << " cap " << cap;
      solo[i].ExpectBitIdentical(result.metrics, PathKindToString(
          specs[i].kind));
    }
    EXPECT_LE(qe.peak_admitted(), cap);
    EXPECT_EQ(qe.completed(), specs.size());
  }
}

// A real rendezvous: 8 queries each block in their residual predicate until
// all 8 have started, which can only resolve if 8 queries are admitted
// concurrently — proving the cap is a true concurrency level, not just a
// queue bound. The barrier changes wall time only, never charges.
TEST_F(ConcurrentEngineTest, EightQueriesGenuinelyConcurrent) {
  constexpr uint32_t kN = 8;
  std::mutex mu;
  std::condition_variable cv;
  uint32_t waiting = 0;

  QueryEngineOptions qeo;
  qeo.max_admitted = kN;
  QueryEngine qe(engine_.get(), qeo);

  std::vector<QueryEngine::QueryId> ids;
  for (uint32_t q = 0; q < kN; ++q) {
    QuerySpec spec = Spec(PathKind::kFullScan, 0.05);
    spec.collect_keys = false;
    spec.predicate.residual = [&](const Tuple&) {
      thread_local bool arrived = false;  // One rendezvous per executor.
      if (!arrived) {
        arrived = true;
        std::unique_lock<std::mutex> lock(mu);
        if (++waiting == kN) {
          cv.notify_all();
        } else {
          cv.wait(lock, [&] { return waiting == kN; });
        }
      }
      return true;
    };
    ids.push_back(qe.SubmitSpec(spec));
  }
  for (const QueryEngine::QueryId id : ids) {
    EXPECT_TRUE(qe.WaitSpec(id).status.ok());
  }
  EXPECT_EQ(qe.peak_admitted(), kN);
}

TEST_F(ConcurrentEngineTest, SlaLaneJumpsTheBatchQueue) {
  QueryEngineOptions qeo;
  qeo.max_admitted = 1;  // Serialize execution so admission order is visible.
  QueryEngine qe(engine_.get(), qeo);

  std::mutex mu;
  std::vector<int> start_order;
  std::atomic<bool> gate{false};
  std::atomic<bool> first_started{false};
  auto tagged = [&](int tag, QueryLane lane, bool hold) {
    QuerySpec spec = Spec(PathKind::kFullScan, 0.01);
    spec.collect_keys = false;
    spec.lane = lane;
    spec.predicate.residual = [&, tag, hold](const Tuple&) {
      thread_local int last_tag = -1;
      if (last_tag != tag) {
        last_tag = tag;
        {
          std::lock_guard<std::mutex> lock(mu);
          start_order.push_back(tag);
        }
        first_started.store(true);
        // The first query parks until every later query is queued, so lane
        // priority — not submission timing — decides what runs next.
        while (hold && !gate.load()) std::this_thread::yield();
      }
      return true;
    };
    return spec;
  };

  std::vector<QueryEngine::QueryId> ids;
  ids.push_back(qe.SubmitSpec(tagged(0, QueryLane::kBatch, /*hold=*/true)));
  // Only submit the contenders once query 0 is genuinely admitted and
  // running, so they demonstrably queue behind it.
  while (!first_started.load()) std::this_thread::yield();
  ids.push_back(qe.SubmitSpec(tagged(1, QueryLane::kBatch, false)));
  ids.push_back(qe.SubmitSpec(tagged(2, QueryLane::kBatch, false)));
  ids.push_back(qe.SubmitSpec(tagged(3, QueryLane::kSla, false)));
  gate.store(true);
  for (const QueryEngine::QueryId id : ids) {
    EXPECT_TRUE(qe.WaitSpec(id).status.ok());
  }
  // Query 0 was running; the SLA query overtakes the two queued batch ones.
  ASSERT_EQ(start_order.size(), 4u);
  EXPECT_EQ(start_order[0], 0);
  EXPECT_EQ(start_order[1], 3);
  EXPECT_EQ(start_order[2], 1);
  EXPECT_EQ(start_order[3], 2);
}

TEST_F(ConcurrentEngineTest, ParallelLeafMatchesSoloParallelRun) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.3);
  const std::multiset<int64_t> oracle = Oracle(pred);

  // Solo parallel run: default merge into the zeroed engine stream.
  engine_->ColdRestart();
  engine_->disk().ResetAll();
  engine_->cpu().Reset();
  TaskScheduler scheduler(4);
  ParallelScanOptions po;
  po.dop = 2;
  po.scheduler = &scheduler;
  auto solo_path =
      MakeParallelFullScan(&db_->heap(), pred, FullScanOptions(), po);
  ASSERT_TRUE(solo_path->Open().ok());
  CostSnapshot solo;
  TupleBatch batch;
  while (solo_path->NextBatch(&batch)) solo.tuples += batch.size();
  solo_path->Close();
  solo.io = engine_->disk().stats();
  solo.cpu = engine_->cpu().time();

  // Same plan through the query engine, concurrently with itself.
  QueryEngineOptions qeo;
  qeo.max_admitted = 4;
  qeo.scheduler = &scheduler;
  QueryEngine qe(engine_.get(), qeo);
  QuerySpec spec = Spec(PathKind::kFullScan, 0.3);
  spec.dop = 2;
  std::vector<QueryEngine::QueryId> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(qe.SubmitSpec(spec));
  for (const QueryEngine::QueryId id : ids) {
    const QueryResult result = qe.WaitSpec(id);
    ASSERT_TRUE(result.status.ok());
    EXPECT_TRUE(result.metrics.parallel);
    const std::multiset<int64_t> got(result.keys.begin(), result.keys.end());
    EXPECT_EQ(got, oracle);
    solo.ExpectBitIdentical(result.metrics, "parallel leaf");
  }
}

TEST_F(ConcurrentEngineTest, ChooserReusePerStreamQuery) {
  const TableStats honest =
      TableStats::Compute(db_->heap(), MicroBenchDb::kIndexedColumn);
  TableStats lying = honest;
  lying.CorruptScale(0.001);
  CostModelParams params;
  params.num_tuples = db_->heap().num_tuples();
  params.tuple_size =
      8192 / (db_->heap().num_tuples() / db_->heap().num_pages());
  const CostModel model(params);

  QueryEngine qe(engine_.get(), QueryEngineOptions());
  QuerySpec spec = Spec(PathKind::kFullScan, 0.9);
  spec.use_chooser = true;
  spec.cost_model = &model;

  // Honest statistics at 90% selectivity: the chooser picks the full scan.
  spec.stats = &honest;
  QueryResult result = qe.WaitSpec(qe.SubmitSpec(spec));
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.metrics.kind, PathKind::kFullScan);

  // Statistics lying 1000x low: an index-driven path looks cheap — the
  // mis-estimation trap the workload driver replays at stream scale.
  spec.stats = &lying;
  result = qe.WaitSpec(qe.SubmitSpec(spec));
  ASSERT_TRUE(result.status.ok());
  EXPECT_NE(result.metrics.kind, PathKind::kFullScan);
  const std::multiset<int64_t> got(result.keys.begin(), result.keys.end());
  EXPECT_EQ(got, Oracle(spec.predicate));
}

TEST_F(ConcurrentEngineTest, MirrorPopulatesSharedPoolWithoutLeakingPins) {
  engine_->ColdRestart();
  ASSERT_EQ(engine_->pool().pinned_pages(), 0u);
  QueryEngine qe(engine_.get(), QueryEngineOptions());
  QuerySpec spec = Spec(PathKind::kFullScan, 0.2);
  spec.collect_keys = false;
  EXPECT_TRUE(qe.WaitSpec(qe.SubmitSpec(spec)).status.ok());
  // The query's pages landed in the shared pool (data-plane residency)...
  EXPECT_GT(engine_->pool().size(), 0u);
  // ...and every mirror pin was released with its guard.
  EXPECT_EQ(engine_->pool().pinned_pages(), 0u);

  // A morsel-driven query mirrors too: its per-morsel private pools all
  // carry the same shared mirror.
  engine_->ColdRestart();
  ASSERT_EQ(engine_->pool().size(), 0u);
  QuerySpec par = Spec(PathKind::kSmoothScan, 0.2);
  par.collect_keys = false;
  par.dop = 2;
  const QueryResult result = qe.WaitSpec(qe.SubmitSpec(par));
  EXPECT_TRUE(result.status.ok());
  EXPECT_TRUE(result.metrics.parallel);
  EXPECT_GT(engine_->pool().size(), 0u);
  EXPECT_EQ(engine_->pool().pinned_pages(), 0u);
}

TEST_F(ConcurrentEngineTest, WorkloadDriverClosedLoopReport) {
  TaskScheduler scheduler(2);
  QueryEngineOptions qeo;
  qeo.max_admitted = 2;
  qeo.scheduler = &scheduler;
  QueryEngine qe(engine_.get(), qeo);
  WorkloadDriver driver(engine_.get(), db_.get(), &qe);

  WorkloadOptions wo;
  wo.clients = 3;
  wo.policy = DriverPolicy::kSmoothScan;
  wo.phases = WorkloadOptions::DriftingPhases(/*queries_per_phase=*/2);
  const WorkloadReport report = driver.Run(wo);

  EXPECT_EQ(report.queries, 3u * 3u * 2u);  // clients x phases x queries.
  EXPECT_EQ(report.path_counts[static_cast<int>(PathKind::kSmoothScan)],
            report.queries);
  EXPECT_GT(report.qps, 0.0);
  EXPECT_GT(report.tuples, 0u);
  EXPECT_GT(report.total_sim_time, 0.0);
  EXPECT_LE(report.p50_latency_ms, report.p95_latency_ms);
  EXPECT_LE(report.p95_latency_ms, report.p99_latency_ms);
  EXPECT_LE(report.p99_latency_ms, report.max_latency_ms);
  EXPECT_EQ(report.per_query.size(), report.queries);

  // Same stream, same policy: per-query simulated cost is reproducible even
  // though scheduling differs run to run.
  QueryEngine qe2(engine_.get(), qeo);
  WorkloadDriver driver2(engine_.get(), db_.get(), &qe2);
  const WorkloadReport again = driver2.Run(wo);
  EXPECT_EQ(again.total_sim_time, report.total_sim_time);  // Bit-identical.
}

TEST_F(ConcurrentEngineTest, CancelInQueueNeverRuns) {
  QueryEngineOptions qeo;
  qeo.max_admitted = 1;  // One executor: the gated query blocks the lane.
  QueryEngine qe(engine_.get(), qeo);
  Session session(&qe, SessionOptions{});

  std::atomic<bool> gate{false};
  std::atomic<bool> started{false};
  QuerySpec holder = Spec(PathKind::kFullScan, 0.01);
  holder.collect_keys = false;
  holder.predicate.residual = [&](const Tuple&) {
    started.store(true);
    while (!gate.load()) std::this_thread::yield();
    return true;
  };
  QueryHandle blocking =
      session.Query().FromSpec(std::move(holder)).Submit();
  while (!started.load()) std::this_thread::yield();

  // The victim sits in the batch lane behind the gated query; Cancel must
  // remove it unadmitted.
  std::atomic<uint64_t> victim_rows{0};
  QuerySpec victim_spec = Spec(PathKind::kFullScan, 0.5);
  victim_spec.collect_keys = false;
  victim_spec.predicate.residual = [&](const Tuple&) {
    victim_rows.fetch_add(1);
    return true;
  };
  QueryHandle victim =
      session.Query().FromSpec(std::move(victim_spec)).Submit();
  victim.Cancel();
  const QueryResult& cancelled = victim.Wait();
  gate.store(true);
  EXPECT_TRUE(blocking.Wait().status.ok());

  EXPECT_EQ(cancelled.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(cancelled.metrics.cancelled);
  // Never admitted: no execution wall time, no charges, not one tuple seen.
  EXPECT_EQ(cancelled.metrics.exec_ms, 0.0);
  EXPECT_EQ(cancelled.metrics.io_requests, 0u);
  EXPECT_EQ(cancelled.metrics.tuples, 0u);
  EXPECT_EQ(victim_rows.load(), 0u);
}

TEST_F(ConcurrentEngineTest, CancelMidExecutionDetachesSharedConsumer) {
  ScanSharingCoordinator coordinator(engine_.get());
  QueryEngineOptions qeo;
  qeo.max_admitted = 8;
  qeo.sharing = &coordinator;
  QueryEngine qe(engine_.get(), qeo);
  SessionOptions so;
  so.max_outstanding = 8;
  Session session(&qe, so);

  const ScanPredicate pred = db_->PredicateForSelectivity(0.4);
  const std::multiset<int64_t> oracle = Oracle(pred);

  // Eight consumers attach to one cooperative scan; the victim parks after
  // its first tuple so the cancel demonstrably lands mid-lap.
  std::atomic<bool> victim_started{false};
  std::atomic<bool> victim_release{false};
  std::vector<QueryHandle> peers;
  for (int i = 0; i < 7; ++i) {
    peers.push_back(session.Query()
                        .Table(&db_->index())
                        .Predicate(pred)
                        .Policy(PathKind::kSharedScan)
                        .CollectKeys()
                        .Submit());
  }
  QuerySpec victim_spec = Spec(PathKind::kSharedScan, 0.4);
  victim_spec.predicate.residual = [&](const Tuple&) {
    victim_started.store(true);
    while (!victim_release.load()) std::this_thread::yield();
    return true;
  };
  QueryHandle victim =
      session.Query().FromSpec(std::move(victim_spec)).Submit();
  while (!victim_started.load()) std::this_thread::yield();
  victim.Cancel();
  victim_release.store(true);

  const QueryResult& vr = victim.Wait();
  EXPECT_EQ(vr.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(vr.metrics.cancelled);
  // The Detach left the cooperative scan intact: all seven peers still
  // deliver the exact oracle multiset.
  for (QueryHandle& peer : peers) {
    const QueryResult& r = peer.Wait();
    ASSERT_TRUE(r.status.ok());
    const std::multiset<int64_t> got(r.keys.begin(), r.keys.end());
    EXPECT_EQ(got, oracle);
  }
}

// An ordered Smooth Scan's Result Cache registers with the engine's memory
// broker whether or not the engine shares scans: every Smooth Scan the
// engine builds is handed the broker, not only the shared-mode one.
TEST_F(ConcurrentEngineTest, ResultCacheGovernedWithoutSharing) {
  MemoryBroker broker;
  QueryEngineOptions qeo;
  qeo.broker = &broker;
  QueryEngine qe(engine_.get(), qeo);
  const uint64_t frames = FrameBytes();
  ASSERT_EQ(broker.total_bytes(), frames);
  SessionOptions so;
  so.stream_batches = 1;
  Session session(&qe, so);
  QueryHandle handle = session.Query()
                           .Table(&db_->index())
                           .Predicate(db_->PredicateForSelectivity(0.3))
                           .Policy(PathKind::kSmoothScan)
                           .Ordered()
                           .Stream()
                           .Submit();
  TupleBatch batch;
  ASSERT_TRUE(handle.NextBatch(&batch));
  // About nine batches in all: the executor is parked on the one-batch
  // stream window with the scan, and its Result Cache, still open. A serial
  // scan has no batch pool, so everything above the frames is the cache.
  const uint64_t parked = broker.total_bytes() - frames;
  while (handle.NextBatch(&batch)) {
  }
  ASSERT_TRUE(handle.Wait().status.ok());
  EXPECT_GT(parked, 0u);
  EXPECT_EQ(broker.total_bytes(), frames);
}

// Every consumer returns what it charged. Under a tight budget, DOP-2 scans
// breach a per-query quota below one batch; then ordered Smooth Scans whose
// Result Caches spill for pressure run beside more DOP-2 scans while one
// ordered scan sits parked mid-stream with its cache charged, and is
// cancelled. Afterwards the broker holds exactly the frames again and the
// pressure episode is over.
TEST_F(ConcurrentEngineTest, BrokerBytesBackAtBaselineAfterMixedLoad) {
  const uint64_t frames = FrameBytes();
  // Low water (budget - budget / 8) sits 112 KiB above the frames, so the
  // pressure that the caches raise can end; the budget is frames / 7 +
  // 128 KiB above them, a few thousand cached tuples.
  MemoryBrokerOptions bo;
  bo.global_budget_bytes = frames + frames / 7 + 128 * 1024;
  MemoryBroker broker(bo);
  obs::MetricsRegistry registry;
  TaskScheduler scheduler(2);
  QueryEngineOptions qeo;
  qeo.max_admitted = 4;
  qeo.scheduler = &scheduler;
  qeo.broker = &broker;
  qeo.metrics = &registry;
  qeo.query_quota_bytes = 4 * 1024;
  QueryEngine qe(engine_.get(), qeo);
  SessionOptions so;
  so.max_outstanding = 16;
  so.stream_batches = 1;
  Session session(&qe, so);
  auto submit_parallel = [&](std::vector<QueryHandle>* out) {
    for (const PathKind kind : {PathKind::kFullScan, PathKind::kSmoothScan}) {
      out->push_back(session.Query()
                         .Table(&db_->index())
                         .Predicate(db_->PredicateForSelectivity(0.2))
                         .Policy(kind)
                         .Dop(2)
                         .Submit());
    }
  };
  uint64_t breaches = 0;
  auto wait_parallel = [&](std::vector<QueryHandle>* handles) {
    for (QueryHandle& h : *handles) {
      const QueryResult& r = h.Wait();
      ASSERT_TRUE(r.status.ok());
      EXPECT_TRUE(r.metrics.parallel);
      breaches += r.metrics.mem_quota_breaches;
    }
  };

  // The first warm batch a pool charges breaches the quota; with nothing
  // else charged the broker is not yet under pressure, so it is charged.
  std::vector<QueryHandle> first;
  submit_parallel(&first);
  wait_parallel(&first);
  EXPECT_GT(breaches, 0u);

  QueryHandle victim = session.Query()
                           .Table(&db_->index())
                           .Predicate(db_->PredicateForSelectivity(0.5))
                           .Policy(PathKind::kSmoothScan)
                           .Ordered()
                           .Stream()
                           .Submit();
  TupleBatch batch;
  ASSERT_TRUE(victim.NextBatch(&batch));
  EXPECT_GT(broker.total_bytes(), frames) << "the parked cache is charged";
  std::vector<QueryHandle> ordered;
  std::vector<QueryHandle> second;
  for (int i = 0; i < 3; ++i) {
    ordered.push_back(session.Query()
                          .Table(&db_->index())
                          .Predicate(db_->PredicateForSelectivity(0.3))
                          .Policy(PathKind::kSmoothScan)
                          .Ordered()
                          .Submit());
  }
  submit_parallel(&second);
  for (QueryHandle& h : ordered) ASSERT_TRUE(h.Wait().status.ok());
  wait_parallel(&second);
  victim.Cancel();
  while (victim.NextBatch(&batch)) {
  }
  const QueryResult& cancelled = victim.Wait();
  EXPECT_TRUE(cancelled.metrics.cancelled) << cancelled.status.ToString();

  EXPECT_GT(registry.counter("rc.pressure_spills")->value(), 0u);
  EXPECT_GT(broker.pressure_epoch(), 0u);
  // Every byte came back.
  EXPECT_EQ(broker.total_bytes(), frames);
  EXPECT_FALSE(broker.UnderPressure());
}

TEST(LatencyPercentileTest, NearestRank) {
  EXPECT_DOUBLE_EQ(LatencyPercentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(LatencyPercentile({7.0}, 0.5), 7.0);
  std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(LatencyPercentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(LatencyPercentile(v, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(LatencyPercentile(v, 0.75), 3.0);
  EXPECT_DOUBLE_EQ(LatencyPercentile(v, 1.0), 4.0);
}

}  // namespace
}  // namespace smoothscan
