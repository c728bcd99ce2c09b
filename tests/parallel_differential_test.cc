// Parallel differential testing: every parallel access path must produce
// exactly the serial Full-Scan oracle's tuple multiset, and its *simulated*
// cost must be a pure function of the morsel decomposition — bit-identical
// engine accounting at DOP 1, 2 and 8 across all five paths and all three
// morph policies. The page-range parallel full scan goes further: its summed
// charges equal the serial scan's exactly. Also covers the Close()/re-Open()
// contract of the parallel paths, the task scheduler, and Rng forking.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "access/full_scan.h"
#include "access/index_scan.h"
#include "access/page_id_cache.h"
#include "access/parallel_scan.h"
#include "common/rng.h"
#include "exec/operators.h"
#include "exec/task_scheduler.h"
#include "workload/micro_bench.h"

namespace smoothscan {
namespace {

/// Engine counter deltas of one measured run.
struct CostSnapshot {
  IoStats io;
  double cpu = 0.0;
  uint64_t tuples = 0;

  void ExpectBitIdentical(const CostSnapshot& other, const char* label) const {
    EXPECT_EQ(io.io_requests, other.io.io_requests) << label;
    EXPECT_EQ(io.random_ios, other.io.random_ios) << label;
    EXPECT_EQ(io.seq_ios, other.io.seq_ios) << label;
    EXPECT_EQ(io.pages_read, other.io.pages_read) << label;
    EXPECT_EQ(io.bytes_read, other.io.bytes_read) << label;
    EXPECT_EQ(io.io_time, other.io.io_time) << label;  // Exact, not NEAR.
    EXPECT_EQ(cpu, other.cpu) << label;                // Exact, not NEAR.
    EXPECT_EQ(tuples, other.tuples) << label;
  }
};

/// Runs `path` cold to completion, checking the result multiset (of c1)
/// against `oracle`, and returns the engine cost. Counters are cleared first:
/// accumulating identical charge sequences onto *different* meter bases
/// shifts double rounding, so bit-identity is defined from a zeroed meter.
CostSnapshot RunAndCheck(Engine* engine, AccessPath* path,
                         const std::multiset<int64_t>& oracle,
                         const char* label) {
  engine->ColdRestart();
  engine->disk().ResetAll();
  engine->cpu().Reset();
  EXPECT_TRUE(path->Open().ok()) << label;
  std::multiset<int64_t> got;
  TupleBatch batch;
  while (path->NextBatch(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      got.insert(batch.row(i)[0].AsInt64());
    }
  }
  path->Close();
  EXPECT_EQ(got, oracle) << label;
  CostSnapshot snap;
  snap.io = engine->disk().stats();
  snap.cpu = engine->cpu().time();
  snap.tuples = got.size();
  return snap;
}

class ParallelDifferentialTest : public ::testing::Test {
 protected:
  ParallelDifferentialTest() {
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

  ParallelScanOptions Par(uint32_t dop) const {
    ParallelScanOptions o;
    o.dop = dop;
    o.morsel_pages = 64;
    o.max_key_morsels = 13;  // Odd count exercises uneven deals + stealing.
    return o;
  }

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<MicroBenchDb> db_;
};

constexpr uint32_t kDops[] = {1, 2, 8};
constexpr double kSelectivities[] = {0.001, 0.05, 0.5, 1.0};

TEST_F(ParallelDifferentialTest, FullScanMatchesSerialBitForBit) {
  for (const double sel : kSelectivities) {
    const ScanPredicate pred = db_->PredicateForSelectivity(sel);
    const std::multiset<int64_t> oracle = Oracle(pred);

    FullScan serial(&db_->heap(), pred);
    const CostSnapshot serial_cost =
        RunAndCheck(engine_.get(), &serial, oracle, "serial FullScan");

    CostSnapshot dop1;
    for (const uint32_t dop : kDops) {
      auto par = MakeParallelFullScan(&db_->heap(), pred, FullScanOptions(),
                                      Par(dop));
      const CostSnapshot cost =
          RunAndCheck(engine_.get(), par.get(), oracle, "ParallelFullScan");
      // The page-range decomposition with seeded streams reproduces the
      // serial charges exactly; CPU differs only in float summation order.
      EXPECT_EQ(cost.io.io_requests, serial_cost.io.io_requests);
      EXPECT_EQ(cost.io.random_ios, serial_cost.io.random_ios);
      EXPECT_EQ(cost.io.seq_ios, serial_cost.io.seq_ios);
      EXPECT_EQ(cost.io.pages_read, serial_cost.io.pages_read);
      EXPECT_EQ(cost.io.io_time, serial_cost.io.io_time);
      EXPECT_NEAR(cost.cpu, serial_cost.cpu, 1e-9 * (1.0 + serial_cost.cpu));
      if (dop == 1) {
        dop1 = cost;
      } else {
        cost.ExpectBitIdentical(dop1, "FullScan DOP invariance");
      }
    }
  }
}

// The AccessPath accounting contract holds for a parallel path too: after
// SetExecContext, every morsel stream settles into the query's context —
// charged exactly like the serial scan in the same context — and nothing
// reaches the engine's shared stream.
TEST_F(ParallelDifferentialTest, ParallelScanChargesItsExecContext) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.3);
  const std::multiset<int64_t> oracle = Oracle(pred);
  auto run_in_query_context = [&](AccessPath* path, const char* label) {
    engine_->ColdRestart();
    engine_->disk().ResetAll();
    engine_->cpu().Reset();
    PrivateContext qctx(engine_.get());
    path->SetExecContext(&qctx.ctx());
    EXPECT_TRUE(path->Open().ok()) << label;
    std::multiset<int64_t> got;
    TupleBatch batch;
    while (path->NextBatch(&batch)) {
      for (size_t i = 0; i < batch.size(); ++i) {
        got.insert(batch.row(i)[0].AsInt64());
      }
    }
    path->Close();
    path->SetExecContext(nullptr);
    EXPECT_EQ(got, oracle) << label;
    const IoStats engine_io = engine_->disk().stats();
    EXPECT_EQ(engine_io.io_requests, 0u) << label;
    EXPECT_EQ(engine_io.pages_read, 0u) << label;
    EXPECT_EQ(engine_io.io_time, 0.0) << label;
    EXPECT_EQ(engine_->cpu().time(), 0.0) << label;
    CostSnapshot snap;
    snap.io = qctx.disk().stats();
    snap.cpu = qctx.cpu().time();
    snap.tuples = got.size();
    return snap;
  };

  FullScan serial(&db_->heap(), pred);
  const CostSnapshot serial_cost = run_in_query_context(&serial, "serial");
  ASSERT_GT(serial_cost.io.pages_read, 0u);
  CostSnapshot dop1;
  for (const uint32_t dop : {1u, 2u, 4u}) {
    auto par = MakeParallelFullScan(&db_->heap(), pred, FullScanOptions(),
                                    Par(dop));
    const CostSnapshot cost = run_in_query_context(par.get(), "parallel");
    // I/O as the serial scan's, bit for bit; CPU up to float summation
    // order, as in FullScanMatchesSerialBitForBit.
    EXPECT_EQ(cost.io.io_requests, serial_cost.io.io_requests) << dop;
    EXPECT_EQ(cost.io.random_ios, serial_cost.io.random_ios) << dop;
    EXPECT_EQ(cost.io.seq_ios, serial_cost.io.seq_ios) << dop;
    EXPECT_EQ(cost.io.pages_read, serial_cost.io.pages_read) << dop;
    EXPECT_EQ(cost.io.bytes_read, serial_cost.io.bytes_read) << dop;
    EXPECT_EQ(cost.io.io_time, serial_cost.io.io_time) << dop;
    EXPECT_NEAR(cost.cpu, serial_cost.cpu, 1e-9 * (1.0 + serial_cost.cpu));
    EXPECT_EQ(cost.tuples, serial_cost.tuples) << dop;
    if (dop == 1) {
      dop1 = cost;
    } else {
      cost.ExpectBitIdentical(dop1, "context charges DOP invariance");
    }
  }
}

TEST_F(ParallelDifferentialTest, IndexScanDopInvariant) {
  for (const double sel : kSelectivities) {
    const ScanPredicate pred = db_->PredicateForSelectivity(sel);
    const std::multiset<int64_t> oracle = Oracle(pred);
    CostSnapshot dop1;
    for (const uint32_t dop : kDops) {
      auto par = MakeParallelIndexScan(&db_->index(), pred, Par(dop));
      const CostSnapshot cost =
          RunAndCheck(engine_.get(), par.get(), oracle, "ParallelIndexScan");
      if (dop == 1) {
        dop1 = cost;
      } else {
        cost.ExpectBitIdentical(dop1, "IndexScan DOP invariance");
      }
    }
  }
}

TEST_F(ParallelDifferentialTest, SortScanDopInvariant) {
  for (const double sel : kSelectivities) {
    const ScanPredicate pred = db_->PredicateForSelectivity(sel);
    const std::multiset<int64_t> oracle = Oracle(pred);
    CostSnapshot dop1;
    for (const uint32_t dop : kDops) {
      auto par = MakeParallelSortScan(&db_->index(), pred, SortScanOptions(),
                                      Par(dop));
      const CostSnapshot cost =
          RunAndCheck(engine_.get(), par.get(), oracle, "ParallelSortScan");
      if (dop == 1) {
        dop1 = cost;
      } else {
        cost.ExpectBitIdentical(dop1, "SortScan DOP invariance");
      }
    }
  }
}

TEST_F(ParallelDifferentialTest, SwitchScanDopInvariant) {
  for (const double sel : kSelectivities) {
    const ScanPredicate pred = db_->PredicateForSelectivity(sel);
    const std::multiset<int64_t> oracle = Oracle(pred);
    // Estimates below, at and above the true cardinality: unswitched,
    // boundary and switched executions all covered.
    for (const uint64_t estimate :
         {uint64_t{0}, oracle.size() / 2, oracle.size() + 10}) {
      SwitchScanOptions so;
      so.estimated_cardinality = estimate;
      CostSnapshot dop1;
      for (const uint32_t dop : kDops) {
        auto par = MakeParallelSwitchScan(&db_->index(), pred, so, Par(dop));
        const CostSnapshot cost = RunAndCheck(engine_.get(), par.get(), oracle,
                                              "ParallelSwitchScan");
        if (dop == 1) {
          dop1 = cost;
        } else {
          cost.ExpectBitIdentical(dop1, "SwitchScan DOP invariance");
        }
      }
    }
  }
}

TEST_F(ParallelDifferentialTest, SmoothScanDopInvariantAcrossPolicies) {
  for (const MorphPolicy policy :
       {MorphPolicy::kGreedy, MorphPolicy::kSelectivityIncrease,
        MorphPolicy::kElastic}) {
    for (const double sel : kSelectivities) {
      const ScanPredicate pred = db_->PredicateForSelectivity(sel);
      const std::multiset<int64_t> oracle = Oracle(pred);
      SmoothScanOptions so;
      so.policy = policy;
      CostSnapshot dop1;
      for (const uint32_t dop : kDops) {
        auto par = MakeParallelSmoothScan(&db_->index(), pred, so, Par(dop));
        const CostSnapshot cost = RunAndCheck(engine_.get(), par.get(), oracle,
                                              "ParallelSmoothScan");
        if (dop == 1) {
          dop1 = cost;
        } else {
          cost.ExpectBitIdentical(
              dop1, MorphPolicyToString(policy));
        }
      }
    }
  }
}

// Every smooth morsel after the first starts from the page density the
// prolog observed in the morsel before it (region size and anchor) and runs
// aligned windows on a stream seeded at page_begin - 1. The seed depends on
// the data and the morsel size only, so the contract above still holds with
// seeds: exact multisets and bit-identical accounting at DOP 1/2/4/8, for
// every policy, on the uniform table and on the skewed one (dense head, then
// sparse), where consecutive morsels see very different densities.
TEST_F(ParallelDifferentialTest, SeededSmoothMorselsKeepDopInvariance) {
  constexpr uint32_t kSeededDops[] = {1, 2, 4, 8};
  EngineOptions eo;
  eo.buffer_pool_pages = 512;
  Engine skew_engine(eo);
  SkewedBenchSpec skew_spec;
  skew_spec.num_tuples = 30000;
  skew_spec.value_max = 4000;
  skew_spec.dense_prefix = 3000;
  skew_spec.extra_match_fraction = 0.01;
  skew_spec.seed = 17;
  const MicroBenchDb skew_db(&skew_engine, skew_spec);
  struct Case {
    Engine* engine;
    const MicroBenchDb* db;
    ScanPredicate pred;
  };
  std::vector<Case> cases;
  for (const double sel : kSelectivities) {
    cases.push_back({engine_.get(), db_.get(),
                     db_->PredicateForSelectivity(sel)});
  }
  cases.push_back({&skew_engine, &skew_db, skew_db.ZeroKeyPredicate()});
  for (const MorphPolicy policy :
       {MorphPolicy::kGreedy, MorphPolicy::kSelectivityIncrease,
        MorphPolicy::kElastic}) {
    for (const Case& c : cases) {
      std::multiset<int64_t> oracle;
      c.db->heap().ForEachDirect([&](Tid, const Tuple& t) {
        if (c.pred.Matches(t)) oracle.insert(t[0].AsInt64());
      });
      SmoothScanOptions so;
      so.policy = policy;
      const std::string label =
          std::string(MorphPolicyToString(policy)) + " hi " +
          std::to_string(c.pred.hi) + (c.db == &skew_db ? " skewed" : "");
      ASSERT_GT(c.db->heap().num_pages(), 2 * Par(1).morsel_pages);
      CostSnapshot dop1;
      for (const uint32_t dop : kSeededDops) {
        auto par = MakeParallelSmoothScan(&c.db->index(), c.pred, so, Par(dop));
        const CostSnapshot cost =
            RunAndCheck(c.engine, par.get(), oracle, label.c_str());
        if (dop == 1) {
          dop1 = cost;
        } else {
          cost.ExpectBitIdentical(dop1, label.c_str());
        }
      }
    }
  }
}

// The seeds close the parallel plan tax: on a table 8x the buffer pool, with
// the engine's default 128-page morsels, DOP-2 Smooth Scan costs at most 1.1x
// the serial operator from 5% to 100% selectivity (an unseeded decomposition
// paid 1.7-1.8x: every morsel restarted region growth at one page on a cold
// stream) and at most 1.2x at 1%, where morsels are sparse enough that the
// seed keeps regions small.
TEST_F(ParallelDifferentialTest, SeededSmoothMorselsStayNearSerialCost) {
  EngineOptions eo;
  eo.buffer_pool_pages = 512;
  Engine engine(eo);
  MicroBenchSpec spec;
  spec.num_tuples = 400000;
  spec.seed = 1;
  const MicroBenchDb db(&engine, spec);
  ASSERT_GE(db.heap().num_pages(), 8u * eo.buffer_pool_pages);
  ParallelScanOptions po;
  po.dop = 2;
  for (const double sel : {0.01, 0.05, 0.10, 0.20, 0.50, 1.0}) {
    const ScanPredicate pred = db.PredicateForSelectivity(sel);
    std::multiset<int64_t> oracle;
    db.heap().ForEachDirect([&](Tid, const Tuple& t) {
      if (pred.Matches(t)) oracle.insert(t[0].AsInt64());
    });
    const std::string label = "sel " + std::to_string(sel);
    SmoothScan serial(&db.index(), pred);
    const CostSnapshot s = RunAndCheck(&engine, &serial, oracle, label.c_str());
    auto par = MakeParallelSmoothScan(&db.index(), pred, SmoothScanOptions(), po);
    const CostSnapshot p = RunAndCheck(&engine, par.get(), oracle, label.c_str());
    const double ratio = (p.io.io_time + p.cpu) / (s.io.io_time + s.cpu);
    EXPECT_LE(ratio, sel < 0.05 ? 1.2 : 1.1) << label;
  }
}

// A kernel given one whole-table morsel is the serial operator with its
// prolog on a second stream: same multiset, same I/O, CPU equal up to float
// summation order. Pins the morsel kernels to the serial operators they run.
TEST_F(ParallelDifferentialTest, SingleMorselKernelMatchesSerial) {
  ParallelScanOptions one = Par(1);
  one.morsel_pages = 1u << 20;  // >= num_pages, a multiple of every window.
  one.max_key_morsels = 1;
  ASSERT_GE(one.morsel_pages, db_->heap().num_pages());
  SwitchScanOptions switch_options;
  switch_options.estimated_cardinality = 50;
  for (const double sel : kSelectivities) {
    const ScanPredicate pred = db_->PredicateForSelectivity(sel);
    const std::multiset<int64_t> oracle = Oracle(pred);
    IndexScan index(&db_->index(), pred);
    SortScan sort(&db_->index(), pred);
    SwitchScan switch_scan(&db_->index(), pred, switch_options);
    SmoothScan smooth(&db_->index(), pred);
    const std::pair<AccessPath*, std::unique_ptr<ParallelScan>> cases[] = {
        {&index, MakeParallelIndexScan(&db_->index(), pred, one)},
        {&sort, MakeParallelSortScan(&db_->index(), pred, SortScanOptions(),
                                     one)},
        {&switch_scan, MakeParallelSwitchScan(&db_->index(), pred,
                                              switch_options, one)},
        {&smooth, MakeParallelSmoothScan(&db_->index(), pred,
                                         SmoothScanOptions(), one)},
    };
    for (const auto& [serial, par] : cases) {
      const std::string label =
          std::string(serial->name()) + " sel " + std::to_string(sel);
      const CostSnapshot s =
          RunAndCheck(engine_.get(), serial, oracle, label.c_str());
      const CostSnapshot p =
          RunAndCheck(engine_.get(), par.get(), oracle, label.c_str());
      EXPECT_LE(par->num_morsels(), 1u) << label;
      EXPECT_EQ(p.io.io_requests, s.io.io_requests) << label;
      EXPECT_EQ(p.io.random_ios, s.io.random_ios) << label;
      EXPECT_EQ(p.io.seq_ios, s.io.seq_ios) << label;
      EXPECT_EQ(p.io.pages_read, s.io.pages_read) << label;
      EXPECT_EQ(p.io.io_time, s.io.io_time) << label;
      EXPECT_NEAR(p.cpu, s.cpu, 1e-9 * (1.0 + s.cpu)) << label;
    }
  }
}

TEST_F(ParallelDifferentialTest, ResidualPredicatesSurviveParallelism) {
  ScanPredicate pred = db_->PredicateForSelectivity(0.3);
  pred.residual = [](const Tuple& t) { return t[2].AsInt64() % 3 != 0; };
  const std::multiset<int64_t> oracle = Oracle(pred);
  auto full = MakeParallelFullScan(&db_->heap(), pred, FullScanOptions(),
                                   Par(8));
  RunAndCheck(engine_.get(), full.get(), oracle, "full+residual");
  auto index = MakeParallelIndexScan(&db_->index(), pred, Par(8));
  RunAndCheck(engine_.get(), index.get(), oracle, "index+residual");
  auto smooth = MakeParallelSmoothScan(&db_->index(), pred,
                                       SmoothScanOptions(), Par(8));
  RunAndCheck(engine_.get(), smooth.get(), oracle, "smooth+residual");
}

TEST_F(ParallelDifferentialTest, CloseAndReopenRestartsCleanly) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.5);
  const std::multiset<int64_t> oracle = Oracle(pred);
  auto par = MakeParallelSmoothScan(&db_->index(), pred, SmoothScanOptions(),
                                    Par(4));

  // Drain a few batches, abandon mid-stream, close.
  engine_->ColdRestart();
  ASSERT_TRUE(par->Open().ok());
  TupleBatch batch;
  for (int i = 0; i < 3 && par->NextBatch(&batch); ++i) {
  }
  par->Close();

  // Re-open: the second cycle must produce the full result from scratch.
  RunAndCheck(engine_.get(), par.get(), oracle, "re-open after Close");
  // And a *third* full cycle right after a completed one; stats() must
  // report the current cycle only, not carry the previous cycles' counters.
  RunAndCheck(engine_.get(), par.get(), oracle, "second re-open");
  EXPECT_EQ(par->stats().tuples_produced, oracle.size());
}

TEST_F(ParallelDifferentialTest, GatherComposesWithSerialOperatorsAbove) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.4);
  const std::multiset<int64_t> oracle = Oracle(pred);
  engine_->ColdRestart();
  // A ScanOp over the parallel scan is the exchange boundary.
  auto gather = std::make_unique<ScanOp>(
      MakeParallelFullScan(&db_->heap(), pred, FullScanOptions(), Par(8)));
  // Serial filter above the exchange boundary.
  FilterOp filter(engine_.get(), std::move(gather), [](const Tuple& t) {
    return t[0].AsInt64() % 2 == 0;
  });
  ASSERT_TRUE(filter.Open().ok());
  std::multiset<int64_t> got;
  TupleBatch batch;
  while (filter.NextBatch(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      const Tuple& t = batch.row(i);
      got.insert(t[0].AsInt64());
    }
  }
  filter.Close();
  std::multiset<int64_t> expected;
  for (const int64_t v : oracle) {
    if (v % 2 == 0) expected.insert(v);
  }
  EXPECT_EQ(got, expected);
}

// ---------- TaskScheduler ----------

TEST(TaskSchedulerTest, RunsEveryTaskExactlyOnce) {
  TaskScheduler scheduler(4);
  std::atomic<int> count{0};
  std::vector<TaskScheduler::Task> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back([&count] { count.fetch_add(1); });
  }
  scheduler.Submit(std::move(tasks))->Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(TaskSchedulerTest, GroupsCanOverlap) {
  TaskScheduler scheduler(3);
  std::atomic<int> a{0}, b{0};
  auto ga = scheduler.Submit({[&a] { a.fetch_add(1); },
                              [&a] { a.fetch_add(1); }});
  auto gb = scheduler.Submit({[&b] { b.fetch_add(1); }});
  ga->Wait();
  gb->Wait();
  EXPECT_EQ(a.load(), 2);
  EXPECT_EQ(b.load(), 1);
}

TEST(RngForkTest, DeterministicAndDecorrelated) {
  Rng root(42);
  Rng a = root.Fork(0);
  Rng b = root.Fork(1);
  Rng a2 = Rng(42).Fork(0);
  EXPECT_EQ(a.Next(), a2.Next());
  EXPECT_NE(a.Next(), b.Next());
  EXPECT_NE(Rng(42).Fork(0).Next(), Rng(43).Fork(0).Next());
}

// ---------- ConcurrentPageIdCache ----------

TEST(ConcurrentPageIdCacheTest, MarkReportsFirstMarkOnly) {
  ConcurrentPageIdCache cache(200);
  EXPECT_FALSE(cache.IsMarked(63));
  EXPECT_TRUE(cache.Mark(63));
  EXPECT_FALSE(cache.Mark(63));
  EXPECT_TRUE(cache.IsMarked(63));
  EXPECT_FALSE(cache.IsMarked(64));  // Word boundary neighbour untouched.
  EXPECT_TRUE(cache.Mark(64));
  EXPECT_TRUE(cache.IsMarked(64));
}

TEST(ConcurrentPageIdCacheTest, ConcurrentDisjointMarking) {
  ConcurrentPageIdCache cache(1024);
  TaskScheduler scheduler(8);
  std::vector<TaskScheduler::Task> tasks;
  for (uint32_t t = 0; t < 8; ++t) {
    tasks.push_back([&cache, t] {
      for (PageId p = t * 128; p < (t + 1) * 128; ++p) {
        EXPECT_TRUE(cache.Mark(p));
      }
    });
  }
  scheduler.Submit(std::move(tasks))->Wait();
  for (PageId p = 0; p < 1024; ++p) EXPECT_TRUE(cache.IsMarked(p));
}

}  // namespace
}  // namespace smoothscan
