// Memory-governance differential and allocation-regression testing.
//
// The contract under test: the recycling batch pool and the unified memory
// broker are *accounting and recycling* layers — they may shed storage and
// spill cached tuples, but they must never change any query's simulated cost
// by a single bit, and a warm steady-state scan loop must perform zero heap
// allocations per batch. The allocation claim is proven with a counting
// global allocator (suite AllocationRegression, run as its own CI step); the
// cost claim with exact EXPECT_EQ differentials — pooled vs
// allocate-per-batch ablation at DOP 1/2/8, and broker on (tight budget +
// per-query quota, governance visibly firing) vs off through the QueryEngine
// at admission caps 1/2/8.
// Also covers: the recycled-batch hand-off across Open cycles (the
// `pending_ = TupleBatch()` storage-discard regression) and deterministic
// ResultCache pressure spills that lose no tuple.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <thread>
#include <vector>

#include "access/full_scan.h"
#include "access/parallel_scan.h"
#include "access/result_cache.h"
#include "access/smooth_scan.h"
#include "engine/query_engine.h"
#include "engine/session.h"
#include "exec/task_scheduler.h"
#include "mem/batch_pool.h"
#include "mem/memory_broker.h"
#include "workload/micro_bench.h"

namespace {
std::atomic<uint64_t> g_heap_allocs{0};
}  // namespace

// Counting global allocator: every heap allocation in the binary bumps the
// counter, so "zero allocations in the steady-state loop" is checked against
// the real allocator, not a proxy. Frees are not counted (ordering with
// static destructors makes them uninteresting here). GCC flags free() inside
// a replaced operator delete as a new/delete mismatch; the pairing here is
// malloc/free on both sides, so the warning is a false positive.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace smoothscan {
namespace {

uint64_t AllocCount() { return g_heap_allocs.load(std::memory_order_relaxed); }

/// Per-query engine charges of one measured run (the idiom of
/// parallel_differential_test.cc — bit-identity is defined from a zeroed
/// meter after a cold restart).
struct CostSnapshot {
  IoStats io;
  double cpu = 0.0;
  uint64_t tuples = 0;

  void ExpectBitIdentical(const CostSnapshot& other, const char* label) const {
    EXPECT_EQ(io.io_requests, other.io.io_requests) << label;
    EXPECT_EQ(io.random_ios, other.io.random_ios) << label;
    EXPECT_EQ(io.seq_ios, other.io.seq_ios) << label;
    EXPECT_EQ(io.pages_read, other.io.pages_read) << label;
    EXPECT_EQ(io.io_time, other.io.io_time) << label;  // Exact, not NEAR.
    EXPECT_EQ(cpu, other.cpu) << label;                // Exact, not NEAR.
    EXPECT_EQ(tuples, other.tuples) << label;
  }

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

class MemGovernanceTest : public ::testing::Test {
 protected:
  MemGovernanceTest() {
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

  /// Cold measured run against the engine's own stack, counters zeroed.
  CostSnapshot MeasuredRun(AccessPath* path) {
    engine_->ColdRestart();
    engine_->disk().ResetAll();
    engine_->cpu().Reset();
    EXPECT_TRUE(path->Open().ok());
    CostSnapshot snap;
    TupleBatch batch;
    while (path->NextBatch(&batch)) snap.tuples += batch.size();
    path->Close();
    snap.io = engine_->disk().stats();
    snap.cpu = engine_->cpu().time();
    return snap;
  }

  ParallelScanOptions Par(uint32_t dop, bool recycle = true) const {
    ParallelScanOptions o;
    o.dop = dop;
    o.morsel_pages = 64;
    o.max_key_morsels = 13;
    o.recycle_batches = recycle;
    return o;
  }

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<MicroBenchDb> db_;
};

using AllocationRegression = MemGovernanceTest;

// ---------------------------------------------------------------------------
// Allocation regression: the steady-state scan loop allocates nothing.
// ---------------------------------------------------------------------------

// A warm serial Full Scan — buffer pool resident, carry batch's Value
// storage grown — must run its fill loop with strictly ZERO heap
// allocations: pages pin out of the pool, tuples deserialize into recycled
// Value slots, the batch recycles its own rows.
TEST_F(AllocationRegression, SerialWarmScanLoopAllocatesNothing) {
  const ScanPredicate pred = db_->PredicateForSelectivity(1.0);
  // Pass 1: fault the table into the (large enough) buffer pool.
  {
    FullScan warmer(&db_->heap(), pred);
    ASSERT_TRUE(warmer.Open().ok());
    TupleBatch batch;
    while (warmer.NextBatch(&batch)) {
    }
    warmer.Close();
  }
  // Pass 2: warm carry batch over a warm pool, then count.
  FullScan scan(&db_->heap(), pred);
  ASSERT_TRUE(scan.Open().ok());
  TupleBatch batch;
  uint64_t tuples = 0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(scan.NextBatch(&batch));
    tuples += batch.size();
  }
  const uint64_t before = AllocCount();
  uint64_t counted_batches = 0;
  while (scan.NextBatch(&batch)) {
    tuples += batch.size();
    ++counted_batches;
  }
  const uint64_t allocs = AllocCount() - before;
  scan.Close();
  ASSERT_GT(counted_batches, 10u) << "loop too short to be a steady state";
  EXPECT_EQ(allocs, 0u) << "steady-state scan loop hit the heap ("
                        << counted_batches << " batches)";
  EXPECT_EQ(tuples, 30000u);
}

// The parallel scan's pooled batches reach steady state across Open cycles:
// after warm cycles, a whole drain cycle performs no cold acquire — every
// batch the kernels emit comes warm off the free list, and every batch goes
// home (none leaked, none discarded by the NextBatch hand-off). The
// stabilization loop tolerates scheduling skew in how many batches are in
// flight at once; the pool's high-water mark is bounded by the cycle's
// total batch count, so two consecutive all-warm cycles must appear.
TEST_F(AllocationRegression, ParallelScanCyclesReachZeroColdAcquires) {
  const ScanPredicate pred = db_->PredicateForSelectivity(1.0);
  const std::multiset<int64_t> oracle = Oracle(pred);
  auto par =
      MakeParallelFullScan(&db_->heap(), pred, FullScanOptions(), Par(2));

  uint64_t prev_cold = 0;
  int warm_cycles = 0;
  for (int cycle = 0; cycle < 25 && warm_cycles < 2; ++cycle) {
    ASSERT_TRUE(par->Open().ok());
    std::multiset<int64_t> got;
    TupleBatch batch;
    while (par->NextBatch(&batch)) {
      for (size_t i = 0; i < batch.size(); ++i) {
        got.insert(batch.row(i)[0].AsInt64());
      }
    }
    par->Close();
    ASSERT_EQ(got, oracle) << "cycle " << cycle;

    const BatchPoolStats s = par->batch_pool()->stats();
    EXPECT_EQ(s.releases, s.acquires) << "batches leaked in cycle " << cycle;
    EXPECT_EQ(s.sheds, 0u) << "unquota'd pool shed storage";
    if (cycle > 0 && s.cold_acquires() == prev_cold) {
      ++warm_cycles;
    } else {
      warm_cycles = 0;
    }
    prev_cold = s.cold_acquires();
  }
  EXPECT_EQ(warm_cycles, 2) << "pool never reached all-warm steady state";
  const BatchPoolStats s = par->batch_pool()->stats();
  EXPECT_GT(s.reuses, 0u);
  EXPECT_GT(s.fresh_batches, 0u);
  EXPECT_LE(s.fresh_batches, s.acquires);
}

// Regression for the partial-consumer hand-off (`pending_`): a consumer
// that stops mid-stream must not strand pooled batches — Close drains and
// releases everything, so reopening stays warm. The old code path
// (`pending_ = TupleBatch()`) discarded the recycled storage instead.
TEST_F(AllocationRegression, AbandonedPendingBatchReturnsToPool) {
  const ScanPredicate pred = db_->PredicateForSelectivity(1.0);
  auto par =
      MakeParallelFullScan(&db_->heap(), pred, FullScanOptions(), Par(2));
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_TRUE(par->Open().ok());
    TupleBatch batch;
    // Consume a couple of batches, then walk away mid-stream.
    ASSERT_TRUE(par->NextBatch(&batch));
    ASSERT_TRUE(par->NextBatch(&batch));
    par->Close();
    const BatchPoolStats s = par->batch_pool()->stats();
    EXPECT_EQ(s.releases, s.acquires)
        << "abandoned cycle " << cycle << " stranded pooled batches";
  }
}

// A streamed query's heap allocations do not grow with its result. On a warm
// engine the executor refills the batch the stream hands back and the
// client's previous batch goes back to the executor, so a Session Stream()
// FullScan at 100% allocates no more than the same query at 25%, give or
// take one window of cold batches (each batch's first fill allocates its row
// slots and one Value vector per row). A stream that takes batches away
// instead makes every next batch re-allocate all of that: at least one
// allocation per result tuple. (Serial leaf: a parallel leaf's pool grows to
// the batches its unbounded morsel queues hold in flight.)
TEST_F(AllocationRegression, StreamedQueryAllocationsIndependentOfResultSize) {
  QueryEngineOptions qeo;
  qeo.max_admitted = 1;
  QueryEngine qe(engine_.get(), qeo);
  const SessionOptions so;
  Session session(&qe, so);
  auto streamed = [&](double selectivity, uint64_t* tuples) {
    const uint64_t before = AllocCount();
    QueryHandle h = session.Query()
                        .Table(&db_->index())
                        .Predicate(db_->PredicateForSelectivity(selectivity))
                        .Policy(PathKind::kFullScan)
                        .Stream()
                        .Submit();
    TupleBatch batch;
    *tuples = 0;
    while (h.NextBatch(&batch)) *tuples += batch.size();
    EXPECT_TRUE(h.Wait().status.ok());
    return AllocCount() - before;
  };
  uint64_t quarter_tuples = 0;
  uint64_t full_tuples = 0;
  streamed(1.0, &full_tuples);  // Warm the pool and the allocator.
  const uint64_t quarter = streamed(0.25, &quarter_tuples);
  const uint64_t full = streamed(1.0, &full_tuples);
  ASSERT_EQ(full_tuples, 30000u);
  ASSERT_GT(quarter_tuples, 4 * kDefaultBatchSize) << "too few batches";
  const uint64_t one_window = so.stream_batches * (kDefaultBatchSize + 1);
  EXPECT_LE(full, quarter + one_window)
      << full << " allocations at 100% vs " << quarter << " at 25% ("
      << full_tuples - quarter_tuples << " more tuples)";
}

// Smooth Scan's harvest decodes each qualifying tuple in place — into the
// caller's batch, or into a spill slot of the high-water buffer that hands
// tuples to the batch by swap — so once the buffer has reached the largest
// region, a drain at 100% allocates per region (caches, iterator, probes),
// not per tuple; Deserialize-then-move allocates once per produced tuple.
TEST_F(AllocationRegression, SmoothScanHarvestAllocatesPerRegionNotPerTuple) {
  SmoothScan scan(&db_->index(), db_->PredicateForSelectivity(1.0),
                  SmoothScanOptions());
  TupleBatch batch;
  auto drain = [&] {
    EXPECT_TRUE(scan.Open().ok());
    uint64_t tuples = 0;
    while (scan.NextBatch(&batch)) tuples += batch.size();
    scan.Close();
    return tuples;
  };
  drain();  // Warm: pool, batch slots and the spill buffer's high water.
  const uint64_t before = AllocCount();
  const uint64_t tuples = drain();
  const uint64_t allocs = AllocCount() - before;
  ASSERT_EQ(tuples, 30000u);
  ASSERT_GT(scan.smooth_stats().probes, 5u) << "too few regions";
  EXPECT_LT(allocs, tuples / 100)
      << allocs << " allocations over " << scan.smooth_stats().probes
      << " regions";
}

// Parallel Smooth Scan morsels harvest into warm spill buffers. A seeded
// dense morsel reads itself as one region, so most of its tuples spill; the
// kernel hands each finished morsel's spill buffer to the next morsel (and
// keeps it across Open cycles) instead of building one per morsel. A warm
// cycle at 100% then allocates per morsel (its private stream's residency
// map, Page ID Cache, scan), not per spilled tuple: twice the morsels may
// cost up to twice the allocations, and stay under one per 100 tuples. A
// buffer rebuilt per morsel allocates once per spilled tuple.
//
// Schedule-proofing: the scan's batch pool and at most `dop` spill buffers
// are kept across Open cycles, so once the pool has grown to the scan's
// peak in-flight batch count (a cold batch's empty rows would also swap
// cold slots into the spill) and each spill buffer has grown, a cycle is
// warm — the gate takes the quietest of five warm cycles, immune to which
// worker ran which morsel and to how far producers ran ahead. A narrow table on 32 KiB pages (about
// 1.6K tuples a page) keeps the per-page residency allocations of the
// prolog's and the morsels' private pools well below one per 100 tuples.
TEST_F(AllocationRegression, ParallelSmoothScanSpillStaysWarmAcrossMorsels) {
  EngineOptions eo;
  eo.page_size = 32768;
  eo.buffer_pool_pages = 512;
  Engine engine(eo);
  MicroBenchSpec spec;
  spec.num_tuples = 120000;
  spec.num_columns = 2;
  spec.value_max = 4000;
  spec.seed = 17;
  const MicroBenchDb db(&engine, spec);
  const ScanPredicate pred = db.PredicateForSelectivity(1.0);
  auto warm_cycle_allocs = [&](uint32_t morsel_pages, size_t* morsels) {
    ParallelScanOptions po = Par(2);
    po.morsel_pages = morsel_pages;
    auto par =
        MakeParallelSmoothScan(&db.index(), pred, SmoothScanOptions(), po);
    TupleBatch batch;
    uint64_t quietest = UINT64_MAX;
    for (int cycle = 0; cycle < 6; ++cycle) {
      const uint64_t before = AllocCount();
      EXPECT_TRUE(par->Open().ok());
      *morsels = par->num_morsels();
      uint64_t tuples = 0;
      while (par->NextBatch(&batch)) tuples += batch.size();
      par->Close();
      const uint64_t allocs = AllocCount() - before;
      EXPECT_EQ(tuples, spec.num_tuples);
      if (cycle > 0) quietest = std::min(quietest, allocs);  // 0 is cold.
    }
    return quietest;
  };
  size_t few = 0;
  size_t many = 0;
  const uint64_t few_allocs = warm_cycle_allocs(16, &few);
  const uint64_t many_allocs = warm_cycle_allocs(8, &many);
  ASSERT_GE(few, 4u) << "too few morsels";
  ASSERT_GE(many, 2 * few - 1);
  EXPECT_LT(few_allocs, spec.num_tuples / 100)
      << few_allocs << " allocations over " << few << " morsels";
  EXPECT_LT(many_allocs, spec.num_tuples / 100)
      << many_allocs << " allocations over " << many << " morsels";
  // Per morsel, not per tuple: the same tuples cut into twice the morsels
  // may cost up to twice the allocations.
  EXPECT_LE(many_allocs, 2 * few_allocs + 64)
      << few_allocs << " allocations over " << few << " morsels, "
      << many_allocs << " over " << many;
}

// ---------------------------------------------------------------------------
// Cost differentials: recycling and governance never change simulated cost.
// ---------------------------------------------------------------------------

TEST_F(MemGovernanceTest, PooledCostsMatchAblationBitForBit) {
  for (const double sel : {0.05, 0.5}) {
    const ScanPredicate pred = db_->PredicateForSelectivity(sel);
    const std::multiset<int64_t> oracle = Oracle(pred);
    for (const uint32_t dop : {1u, 2u, 8u}) {
      auto pooled = MakeParallelFullScan(&db_->heap(), pred,
                                         FullScanOptions(),
                                         Par(dop, /*recycle=*/true));
      auto ablated = MakeParallelFullScan(&db_->heap(), pred,
                                          FullScanOptions(),
                                          Par(dop, /*recycle=*/false));
      const CostSnapshot a = MeasuredRun(pooled.get());
      const CostSnapshot b = MeasuredRun(ablated.get());
      a.ExpectBitIdentical(b, "pooled vs allocate-per-batch");
      EXPECT_EQ(a.tuples, oracle.size());
      // The ablation really did run cold every time.
      EXPECT_EQ(ablated->batch_pool()->stats().reuses, 0u);
      EXPECT_GT(ablated->batch_pool()->stats().sheds, 0u);
    }
  }
}

// The full governance stack — global broker under permanent pressure (the
// engine's buffer-pool frames alone exceed the budget) plus a tiny per-query
// quota — must leave every per-query simulated cost bit-identical to the
// ungoverned engine, at admission caps 1, 2 and 8 with serial and parallel
// plans in the mix. Governance sheds batch storage; it never touches the
// simulated meters and never fails a query.
TEST_F(MemGovernanceTest, BrokerOnOffCostsBitIdenticalAcrossCaps) {
  constexpr PathKind kKinds[] = {PathKind::kFullScan, PathKind::kIndexScan,
                                 PathKind::kSmoothScan};
  constexpr double kSels[] = {0.001, 0.5};
  constexpr uint32_t kSpecDops[] = {0, 2, 8};

  std::vector<QuerySpec> specs;
  std::vector<std::multiset<int64_t>> oracles;
  for (const PathKind kind : kKinds) {
    for (const double sel : kSels) {
      for (const uint32_t dop : kSpecDops) {
        QuerySpec spec;
        spec.index = &db_->index();
        spec.predicate = db_->PredicateForSelectivity(sel);
        spec.kind = kind;
        spec.estimate = 100;
        spec.dop = dop;
        spec.collect_keys = true;
        specs.push_back(spec);
        oracles.push_back(Oracle(spec.predicate));
      }
    }
  }

  TaskScheduler scheduler(4);

  // Reference: the ungoverned engine, serialized admission.
  std::vector<CostSnapshot> reference;
  {
    QueryEngineOptions qeo;
    qeo.max_admitted = 1;
    qeo.scheduler = &scheduler;
    QueryEngine qe(engine_.get(), qeo);
    for (size_t i = 0; i < specs.size(); ++i) {
      const QueryResult r = qe.WaitSpec(qe.SubmitSpec(specs[i]));
      ASSERT_TRUE(r.status.ok());
      const std::multiset<int64_t> got(r.keys.begin(), r.keys.end());
      ASSERT_EQ(got, oracles[i]) << "reference spec " << i;
      CostSnapshot snap;
      snap.io.io_requests = r.metrics.io_requests;
      snap.io.random_ios = r.metrics.random_ios;
      snap.io.seq_ios = r.metrics.seq_ios;
      snap.io.pages_read = r.metrics.pages_read;
      snap.io.io_time = r.metrics.io_time;
      snap.cpu = r.metrics.cpu_time;
      snap.tuples = r.metrics.tuples;
      reference.push_back(snap);
      EXPECT_EQ(r.metrics.mem_quota_breaches, 0u) << "ungoverned engine";
    }
  }

  // Budget sits a hair above the engine's buffer-pool frame charge, so warm
  // exec batches repeatedly push the broker over it (pressure episodes →
  // shedding) and back; the per-query quota is below one batch, so every
  // warm charge is also a breach. Maximal governance activity.
  MemoryBrokerOptions bo;
  bo.global_budget_bytes =
      uint64_t{engine_->options().buffer_pool_pages} *
          engine_->options().page_size +
      64 * 1024;
  for (const uint32_t cap : {1u, 2u, 8u}) {
    MemoryBroker broker(bo);
    QueryEngineOptions qeo;
    qeo.max_admitted = cap;
    qeo.scheduler = &scheduler;
    qeo.broker = &broker;
    qeo.query_quota_bytes = 4 * 1024;  // Below one batch: every charge breaches.
    QueryEngine qe(engine_.get(), qeo);
    ASSERT_FALSE(broker.UnderPressure());

    std::vector<QueryEngine::QueryId> ids;
    for (const QuerySpec& spec : specs) ids.push_back(qe.SubmitSpec(spec));
    uint64_t breaches = 0;
    uint64_t peak = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
      const QueryResult r = qe.WaitSpec(ids[i]);
      ASSERT_TRUE(r.status.ok()) << "governance must never fail a query";
      const std::multiset<int64_t> got(r.keys.begin(), r.keys.end());
      EXPECT_EQ(got, oracles[i]) << "spec " << i << " cap " << cap;
      reference[i].ExpectBitIdentical(r.metrics, "broker on vs off");
      breaches += r.metrics.mem_quota_breaches;
      peak = std::max(peak, r.metrics.mem_peak_bytes);
    }
    // Governance was visibly active, not vacuously satisfied: parallel
    // queries charged exec memory, breached the tiny quota, and pushed the
    // broker into at least one pressure episode.
    EXPECT_GT(breaches, 0u) << "cap " << cap;
    EXPECT_GT(peak, 0u) << "cap " << cap;
    EXPECT_GT(broker.pressure_epoch(), 0u) << "cap " << cap;
  }
}

// ---------------------------------------------------------------------------
// Pressure responses: spill and shed, deterministically, losing nothing.
// ---------------------------------------------------------------------------

TEST_F(MemGovernanceTest, ResultCachePressureSpillIsDeterministicAndLossless) {
  auto run_once = [&](MemoryBroker* broker) {
    ResultCacheOptions rco;
    rco.broker = broker;
    ResultCache cache({100, 200, 300}, engine_.get(), rco);
    // Interleave inserts across all four partitions so the pressure scan
    // always has a "furthest" partition distinct from the insert target.
    std::vector<std::pair<int64_t, Tid>> inserted;
    for (uint16_t i = 0; i < 24; ++i) {
      const int64_t key = (i % 4) * 100 + 50;  // 50, 150, 250, 350, ...
      const Tid tid{static_cast<PageId>(i / 4), static_cast<SlotId>(i % 4)};
      cache.Insert(key, tid, Tuple{Value::Int64(key), Value::Int64(i)});
      inserted.emplace_back(key, tid);
    }
    // Every tuple must come back intact, spilled partitions restored.
    for (const auto& [key, tid] : inserted) {
      const std::optional<Tuple> t = cache.Take(key, tid);
      if (!t.has_value()) {
        ADD_FAILURE() << "lost tuple key=" << key;
        continue;
      }
      EXPECT_EQ((*t)[0].AsInt64(), key);
    }
    return cache.spill_stats();
  };

  // Control: no pressure, no pressure spills.
  {
    MemoryBroker roomy{MemoryBrokerOptions{}};
    const ResultCacheStats stats = run_once(&roomy);
    EXPECT_EQ(stats.pressure_spills, 0u);
    EXPECT_EQ(stats.spills, 0u);
  }

  // Under permanent pressure the cache spills its furthest partitions —
  // same insert sequence, same spill decisions, run after run.
  MemoryBrokerOptions bo;
  bo.global_budget_bytes = 4 * 1024;
  MemoryBroker broker(bo);
  MemoryBroker::Consumer hog(&broker);
  hog.Charge(8 * 1024);
  ASSERT_TRUE(broker.UnderPressure());
  const ResultCacheStats first = run_once(&broker);
  EXPECT_GT(first.pressure_spills, 0u);
  EXPECT_GT(first.spilled_tuples, 0u);
  EXPECT_EQ(first.restored_tuples, first.spilled_tuples)
      << "every spilled tuple must restore on Take";
  const ResultCacheStats second = run_once(&broker);
  EXPECT_EQ(second.pressure_spills, first.pressure_spills)
      << "pressure spilling must be deterministic";
  EXPECT_EQ(second.spilled_tuples, first.spilled_tuples);
}

}  // namespace
}  // namespace smoothscan
