// TPC-H substrate tests: generator sanity (shapes, domains, referential
// integrity, the selectivities the paper's queries rely on) and query
// correctness — every query must return identical results no matter which
// LINEITEM access path executes it.

#include <gtest/gtest.h>

#include <cmath>

#include "tpch/queries.h"
#include "tpch/tpch_gen.h"

namespace smoothscan::tpch {
namespace {

class TpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    EngineOptions eo;
    eo.buffer_pool_pages = 512;
    engine_ = new Engine(eo);
    TpchSpec spec;
    spec.scale_factor = 0.002;  // ~3000 orders, ~12000 lineitems.
    db_ = new TpchDb(engine_, spec);
  }
  static void TearDownTestSuite() {
    delete db_;
    delete engine_;
    db_ = nullptr;
    engine_ = nullptr;
  }

  static Engine* engine_;
  static TpchDb* db_;
};

Engine* TpchTest::engine_ = nullptr;
TpchDb* TpchTest::db_ = nullptr;

TEST(DateDaysTest, KnownDates) {
  EXPECT_EQ(DateDays(1970, 1, 1), 0);
  EXPECT_EQ(DateDays(1970, 1, 2), 1);
  EXPECT_EQ(DateDays(1992, 1, 1), 8035);
  EXPECT_EQ(DateDays(1998, 12, 1), 10561);
  EXPECT_EQ(DateDays(2000, 3, 1), 11017);  // Leap-century crossing.
}

TEST_F(TpchTest, TableCardinalitiesScale) {
  EXPECT_NEAR(static_cast<double>(db_->orders().num_tuples()), 3000.0, 10.0);
  EXPECT_NEAR(static_cast<double>(db_->customer().num_tuples()), 300.0, 5.0);
  EXPECT_NEAR(static_cast<double>(db_->part().num_tuples()), 400.0, 5.0);
  EXPECT_EQ(db_->nation().num_tuples(), 25u);
  EXPECT_EQ(db_->region().num_tuples(), 5u);
  // ~4 lineitems per order.
  const double ratio = static_cast<double>(db_->lineitem().num_tuples()) /
                       static_cast<double>(db_->orders().num_tuples());
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 5.0);
  EXPECT_EQ(db_->partsupp().num_tuples(), db_->part().num_tuples() * 4);
}

TEST_F(TpchTest, LineitemDomains) {
  const int64_t date_lo = DateDays(1992, 1, 1);
  const int64_t date_hi = DateDays(1999, 1, 1);
  db_->lineitem().ForEachDirect([&](Tid, const Tuple& t) {
    EXPECT_GE(t[lineitem::kQuantity].AsDouble(), 1.0);
    EXPECT_LE(t[lineitem::kQuantity].AsDouble(), 50.0);
    EXPECT_GE(t[lineitem::kDiscount].AsDouble(), 0.0);
    EXPECT_LE(t[lineitem::kDiscount].AsDouble(), 0.1 + 1e-9);
    EXPECT_GT(t[lineitem::kShipDate].AsInt64(), date_lo);
    EXPECT_LT(t[lineitem::kShipDate].AsInt64(), date_hi);
    EXPECT_LT(t[lineitem::kShipDate].AsInt64(),
              t[lineitem::kReceiptDate].AsInt64());
  });
}

TEST_F(TpchTest, ReferentialIntegrity) {
  const int64_t max_order = static_cast<int64_t>(db_->orders().num_tuples());
  const int64_t max_part = static_cast<int64_t>(db_->part().num_tuples());
  const int64_t max_supp = static_cast<int64_t>(db_->supplier().num_tuples());
  db_->lineitem().ForEachDirect([&](Tid, const Tuple& t) {
    const int64_t ok = t[lineitem::kOrderKey].AsInt64();
    EXPECT_GE(ok, 1);
    EXPECT_LE(ok, max_order);
    EXPECT_LE(t[lineitem::kPartKey].AsInt64(), max_part);
    EXPECT_LE(t[lineitem::kSuppKey].AsInt64(), max_supp);
  });
  const int64_t max_cust = static_cast<int64_t>(db_->customer().num_tuples());
  db_->orders().ForEachDirect([&](Tid, const Tuple& t) {
    EXPECT_GE(t[orders::kCustKey].AsInt64(), 1);
    EXPECT_LE(t[orders::kCustKey].AsInt64(), max_cust);
  });
}

TEST_F(TpchTest, IndexesAreComplete) {
  EXPECT_EQ(db_->lineitem_shipdate_index().num_entries(),
            db_->lineitem().num_tuples());
  EXPECT_EQ(db_->orders_pk_index().num_entries(), db_->orders().num_tuples());
  db_->lineitem_shipdate_index().CheckInvariants();
  db_->orders_pk_index().CheckInvariants();
}

TEST_F(TpchTest, PaperSelectivitiesHold) {
  // The LINEITEM selectivities the paper's Fig. 4 relies on.
  auto measure = [&](int64_t lo, int64_t hi) {
    uint64_t m = 0;
    db_->lineitem().ForEachDirect([&](Tid, const Tuple& t) {
      const int64_t d = t[lineitem::kShipDate].AsInt64();
      m += d >= lo && d < hi;
    });
    return static_cast<double>(m) /
           static_cast<double>(db_->lineitem().num_tuples());
  };
  // Q1: <= 1998-09-02 -> ~97-98%.
  EXPECT_GT(measure(DateDays(1992, 1, 1), DateDays(1998, 9, 2) + 1), 0.95);
  // Q14: one month -> ~1-1.5%.
  const double q14 = measure(DateDays(1995, 9, 1), DateDays(1995, 10, 1));
  EXPECT_GT(q14, 0.005);
  EXPECT_LT(q14, 0.03);
  // Q7: two years -> ~30%.
  const double q7 = measure(DateDays(1995, 1, 1), DateDays(1996, 12, 31) + 1);
  EXPECT_GT(q7, 0.25);
  EXPECT_LT(q7, 0.36);

  // Q4 residual: commitdate < receiptdate -> ~65%.
  uint64_t m = 0;
  db_->lineitem().ForEachDirect([&](Tid, const Tuple& t) {
    m += t[lineitem::kCommitDate].AsInt64() <
         t[lineitem::kReceiptDate].AsInt64();
  });
  const double q4 =
      static_cast<double>(m) / static_cast<double>(db_->lineitem().num_tuples());
  EXPECT_GT(q4, 0.5);
  EXPECT_LT(q4, 0.8);
}

TEST_F(TpchTest, DeterministicGeneration) {
  Engine e2;
  TpchSpec spec;
  spec.scale_factor = 0.002;
  TpchDb other(&e2, spec);
  EXPECT_EQ(other.lineitem().num_tuples(), db_->lineitem().num_tuples());
  // Spot-check the first lineitem tuple.
  Tuple a, b;
  bool got_a = false, got_b = false;
  db_->lineitem().ForEachDirect([&](Tid, const Tuple& t) {
    if (!got_a) {
      a = t;
      got_a = true;
    }
  });
  other.lineitem().ForEachDirect([&](Tid, const Tuple& t) {
    if (!got_b) {
      b = t;
      got_b = true;
    }
  });
  EXPECT_EQ(a, b);
}

// ---------- Query correctness across access paths ----------

using QueryParam = int;

class TpchQueryEquivalence : public TpchTest,
                             public ::testing::WithParamInterface<QueryParam> {
};

std::string RowsToString(const std::vector<Tuple>& rows) {
  std::string out;
  for (const Tuple& r : rows) {
    for (const Value& v : r) {
      if (v.type() == ValueType::kDouble) {
        // Round to avoid FP-order noise across plans.
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.4f", v.AsDouble());
        out += buf;
      } else {
        out += v.ToString();
      }
      out += '|';
    }
    out += '\n';
  }
  return out;
}

TEST_P(TpchQueryEquivalence, SameResultForEveryAccessPath) {
  const int query = GetParam();
  engine_->ColdRestart();
  const QueryOutput reference = RunQuery(query, *db_, PathKind::kFullScan);
  ASSERT_FALSE(reference.rows.empty());
  for (const PathKind kind :
       {PathKind::kIndexScan, PathKind::kSortScan, PathKind::kSmoothScan}) {
    engine_->ColdRestart();
    const QueryOutput got = RunQuery(query, *db_, kind);
    EXPECT_EQ(RowsToString(got.rows), RowsToString(reference.rows))
        << "query Q" << query << " with " << PathKindToString(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchQueryEquivalence,
                         ::testing::Values(1, 4, 6, 7, 12, 14, 19),
                         [](const ::testing::TestParamInfo<QueryParam>& info) {
                           std::string name = "Q";
                           name.append(std::to_string(info.param));
                           return name;
                         });

TEST_F(TpchTest, SmoothScanReducesIoRequestsOnQ6) {
  // Table II: Q6 drops from 566 K requests (index scan) to 95 K with
  // Smooth Scan. At our scale the factor is smaller but the direction must
  // hold whenever the index scan issues substantial I/O.
  engine_->ColdRestart();
  const IoStats b1 = engine_->disk().stats();
  RunQ6(*db_, PathKind::kIndexScan);
  const uint64_t index_reqs = (engine_->disk().stats() - b1).io_requests;

  engine_->ColdRestart();
  const IoStats b2 = engine_->disk().stats();
  RunQ6(*db_, PathKind::kSmoothScan);
  const uint64_t smooth_reqs = (engine_->disk().stats() - b2).io_requests;

  EXPECT_LT(smooth_reqs, index_reqs);
}

TEST_F(TpchTest, PlainChoicesMatchPaper) {
  EXPECT_EQ(PlainPostgresChoice(1), PathKind::kSortScan);
  EXPECT_EQ(PlainPostgresChoice(4), PathKind::kFullScan);
  EXPECT_EQ(PlainPostgresChoice(6), PathKind::kIndexScan);
  EXPECT_DOUBLE_EQ(PaperLineitemSelectivity(1), 0.98);
  EXPECT_DOUBLE_EQ(PaperLineitemSelectivity(14), 0.01);
}

}  // namespace
}  // namespace smoothscan::tpch
