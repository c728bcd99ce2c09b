#include "tpch/queries.h"

#include <string>

#include "exec/operators.h"

namespace smoothscan::tpch {

namespace {

namespace li = lineitem;
namespace ord = orders;

/// Builds the LINEITEM access path of `kind` for `pred`, exposing the raw
/// pointer so stats survive until after the drain. With `dop >= 1` the leaf
/// becomes a morsel-driven parallel scan (the exchange boundary); the rest of
/// the plan (and its simulated cost) is unchanged — only wall time drops.
std::unique_ptr<Operator> MakeLineitemScan(const TpchDb& db,
                                           const ScanPredicate& pred,
                                           PathKind kind, bool need_order,
                                           uint32_t dop,
                                           const AccessPath** out_path) {
  PathRequest request;
  request.kind = kind;
  request.index = &db.lineitem_shipdate_index();
  request.predicate = pred;
  request.need_order = need_order;
  request.dop = dop;
  std::unique_ptr<AccessPath> path = MakePath(request).path;
  *out_path = path.get();
  return std::make_unique<ScanOp>(std::move(path));
}

/// Trivially-true scan over a dimension table (always a full scan). The
/// dimension tables carry no index, which MakePath needs.
std::unique_ptr<Operator> DimScan(const HeapFile& heap) {
  return std::make_unique<ScanOp>(
      // lint:allow(path-construction) — an unindexed heap.
      std::make_unique<FullScan>(&heap, ScanPredicate{}));
}

QueryOutput Finish(std::unique_ptr<Operator> root, const AccessPath* li_path) {
  QueryOutput out;
  SMOOTHSCAN_CHECK(root->Open().ok());
  Drain(root.get(), &out.rows);
  root->Close();
  if (li_path != nullptr) out.lineitem_stats = li_path->stats();
  return out;
}

}  // namespace

QueryOutput RunQ1(const TpchDb& db, PathKind lineitem_path,
                  uint32_t dop) {
  Engine* engine = db.engine();
  // l_shipdate <= date '1998-12-01' - 90 days.
  ScanPredicate pred;
  pred.column = li::kShipDate;
  pred.lo = DateDays(1992, 1, 1);
  pred.hi = DateDays(1998, 9, 2) + 1;

  const AccessPath* li_path = nullptr;
  std::unique_ptr<Operator> scan =
      MakeLineitemScan(db, pred, lineitem_path, /*need_order=*/false, dop,
                       &li_path);

  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kSum, [](const Tuple& t) {
                    return t[li::kQuantity].AsDouble();
                  }});
  aggs.push_back({AggFn::kSum, [](const Tuple& t) {
                    return t[li::kExtendedPrice].AsDouble();
                  }});
  aggs.push_back({AggFn::kSum, [](const Tuple& t) {
                    return t[li::kExtendedPrice].AsDouble() *
                           (1.0 - t[li::kDiscount].AsDouble());
                  }});
  aggs.push_back({AggFn::kSum, [](const Tuple& t) {
                    return t[li::kExtendedPrice].AsDouble() *
                           (1.0 - t[li::kDiscount].AsDouble()) *
                           (1.0 + t[li::kTax].AsDouble());
                  }});
  aggs.push_back({AggFn::kAvg, [](const Tuple& t) {
                    return t[li::kQuantity].AsDouble();
                  }});
  aggs.push_back({AggFn::kAvg, [](const Tuple& t) {
                    return t[li::kExtendedPrice].AsDouble();
                  }});
  aggs.push_back({AggFn::kAvg, [](const Tuple& t) {
                    return t[li::kDiscount].AsDouble();
                  }});
  aggs.push_back({AggFn::kCount, nullptr});

  auto agg = std::make_unique<HashAggregateOp>(
      engine, std::move(scan),
      std::vector<int>{li::kReturnFlag, li::kLineStatus}, std::move(aggs));
  auto sort = std::make_unique<SortOp>(
      engine, std::move(agg), [](const Tuple& a, const Tuple& b) {
        const int c = a[0].Compare(b[0]);
        return c != 0 ? c < 0 : a[1].Compare(b[1]) < 0;
      });
  return Finish(std::move(sort), li_path);
}

QueryOutput RunQ4(const TpchDb& db, PathKind lineitem_path,
                  uint32_t dop) {
  Engine* engine = db.engine();
  // LINEITEM side: l_commitdate < l_receiptdate (~65% of the table); the
  // shipdate range is unbounded, so an index-driven path walks the whole
  // leaf level — the situation where the access-path choice matters most.
  ScanPredicate pred;
  pred.column = li::kShipDate;
  pred.residual = [](const Tuple& t) {
    return t[li::kCommitDate].AsInt64() < t[li::kReceiptDate].AsInt64();
  };

  const AccessPath* li_path = nullptr;
  std::unique_ptr<Operator> scan =
      MakeLineitemScan(db, pred, lineitem_path, /*need_order=*/false, dop,
                       &li_path);

  // INLJ with ORDERS on the ORDERS PK; joined = L(14) ++ O(6).
  auto join = std::make_unique<IndexNestedLoopJoinOp>(
      std::move(scan), &db.orders_pk_index(), li::kOrderKey);
  constexpr int kJoinedOrderDate = li::kNumColumns + ord::kOrderDate;
  constexpr int kJoinedPriority = li::kNumColumns + ord::kOrderPriority;

  const int64_t date_lo = DateDays(1993, 7, 1);
  const int64_t date_hi = DateDays(1993, 10, 1);
  auto filter = std::make_unique<FilterOp>(
      engine, std::move(join), [=](const Tuple& t) {
        const int64_t d = t[kJoinedOrderDate].AsInt64();
        return d >= date_lo && d < date_hi;
      });

  // EXISTS semantics: distinct orders first, then count per priority.
  auto distinct = std::make_unique<HashAggregateOp>(
      engine, std::move(filter),
      std::vector<int>{li::kOrderKey, kJoinedPriority}, std::vector<AggSpec>{});
  auto count = std::make_unique<HashAggregateOp>(
      engine, std::move(distinct), std::vector<int>{1},
      std::vector<AggSpec>{{AggFn::kCount, nullptr}});
  auto sort = std::make_unique<SortOp>(
      engine, std::move(count), [](const Tuple& a, const Tuple& b) {
        return a[0].Compare(b[0]) < 0;
      });
  return Finish(std::move(sort), li_path);
}

QueryOutput RunQ6(const TpchDb& db, PathKind lineitem_path,
                  uint32_t dop) {
  Engine* engine = db.engine();
  ScanPredicate pred;
  pred.column = li::kShipDate;
  pred.lo = DateDays(1994, 1, 1);
  pred.hi = DateDays(1995, 1, 1);
  pred.residual = [](const Tuple& t) {
    const double discount = t[li::kDiscount].AsDouble();
    return discount >= 0.05 - 1e-9 && discount <= 0.07 + 1e-9 &&
           t[li::kQuantity].AsDouble() < 24.0;
  };

  const AccessPath* li_path = nullptr;
  std::unique_ptr<Operator> scan =
      MakeLineitemScan(db, pred, lineitem_path, /*need_order=*/false, dop,
                       &li_path);

  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kSum, [](const Tuple& t) {
                    return t[li::kExtendedPrice].AsDouble() *
                           t[li::kDiscount].AsDouble();
                  }});
  auto agg = std::make_unique<HashAggregateOp>(
      engine, std::move(scan), std::vector<int>{}, std::move(aggs));
  return Finish(std::move(agg), li_path);
}

QueryOutput RunQ7(const TpchDb& db, PathKind lineitem_path,
                  uint32_t dop) {
  Engine* engine = db.engine();
  ScanPredicate pred;
  pred.column = li::kShipDate;
  pred.lo = DateDays(1995, 1, 1);
  pred.hi = DateDays(1996, 12, 31) + 1;

  const AccessPath* li_path = nullptr;
  std::unique_ptr<Operator> scan =
      MakeLineitemScan(db, pred, lineitem_path, /*need_order=*/false, dop,
                       &li_path);

  // L(14) ++ O(6) = 20 columns.
  auto j1 = std::make_unique<IndexNestedLoopJoinOp>(
      std::move(scan), &db.orders_pk_index(), li::kOrderKey);
  constexpr int kOCustKey = li::kNumColumns + ord::kCustKey;  // 15

  // ++ CUSTOMER(4) = 24 columns (customer at 20).
  auto j2 = std::make_unique<HashJoinOp>(engine, std::move(j1),
                                         DimScan(db.customer()), kOCustKey,
                                         customer::kCustKey);
  constexpr int kCNationKey = 20 + customer::kNationKey;  // 21

  // ++ SUPPLIER(3) = 27 columns (supplier at 24).
  auto j3 = std::make_unique<HashJoinOp>(engine, std::move(j2),
                                         DimScan(db.supplier()), li::kSuppKey,
                                         supplier::kSuppKey);
  constexpr int kSNationKey = 24 + supplier::kNationKey;  // 25

  // ++ NATION n1 (supplier nation, 3) = 30 columns (n1 at 27).
  auto j4 = std::make_unique<HashJoinOp>(engine, std::move(j3),
                                         DimScan(db.nation()), kSNationKey,
                                         nation::kNationKey);
  constexpr int kN1Name = 27 + nation::kName;  // 29

  // ++ NATION n2 (customer nation, 3) = 33 columns (n2 at 30).
  auto j5 = std::make_unique<HashJoinOp>(engine, std::move(j4),
                                         DimScan(db.nation()), kCNationKey,
                                         nation::kNationKey);
  constexpr int kN2Name = 30 + nation::kName;  // 32

  auto filter = std::make_unique<FilterOp>(
      engine, std::move(j5), [=](const Tuple& t) {
        const std::string& n1 = t[kN1Name].AsString();
        const std::string& n2 = t[kN2Name].AsString();
        return (n1 == "FRANCE" && n2 == "GERMANY") ||
               (n1 == "GERMANY" && n2 == "FRANCE");
      });

  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kSum, [](const Tuple& t) {
                    return t[li::kExtendedPrice].AsDouble() *
                           (1.0 - t[li::kDiscount].AsDouble());
                  }});
  auto agg = std::make_unique<HashAggregateOp>(
      engine, std::move(filter), std::vector<int>{kN1Name, kN2Name},
      std::move(aggs));
  auto sort = std::make_unique<SortOp>(
      engine, std::move(agg), [](const Tuple& a, const Tuple& b) {
        const int c = a[0].Compare(b[0]);
        return c != 0 ? c < 0 : a[1].Compare(b[1]) < 0;
      });
  return Finish(std::move(sort), li_path);
}

QueryOutput RunQ14(const TpchDb& db, PathKind lineitem_path,
                  uint32_t dop) {
  Engine* engine = db.engine();
  ScanPredicate pred;
  pred.column = li::kShipDate;
  pred.lo = DateDays(1995, 9, 1);
  pred.hi = DateDays(1995, 10, 1);

  const AccessPath* li_path = nullptr;
  std::unique_ptr<Operator> scan =
      MakeLineitemScan(db, pred, lineitem_path, /*need_order=*/false, dop,
                       &li_path);

  // INLJ with PART on the PART PK; joined = L(14) ++ P(3).
  auto join = std::make_unique<IndexNestedLoopJoinOp>(
      std::move(scan), &db.part_pk_index(), li::kPartKey);
  constexpr int kPType = li::kNumColumns + part::kType;  // 16

  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kSum, [=](const Tuple& t) {
                    const bool promo =
                        t[kPType].AsString().rfind("PROMO", 0) == 0;
                    return promo ? t[li::kExtendedPrice].AsDouble() *
                                       (1.0 - t[li::kDiscount].AsDouble())
                                 : 0.0;
                  }});
  aggs.push_back({AggFn::kSum, [](const Tuple& t) {
                    return t[li::kExtendedPrice].AsDouble() *
                           (1.0 - t[li::kDiscount].AsDouble());
                  }});
  auto agg = std::make_unique<HashAggregateOp>(
      engine, std::move(join), std::vector<int>{}, std::move(aggs));
  return Finish(std::move(agg), li_path);
}

QueryOutput RunQ12(const TpchDb& db, PathKind lineitem_path,
                  uint32_t dop) {
  Engine* engine = db.engine();
  // Receipt dates within 1994 imply ship dates in a ~14-month window (the
  // index-serviceable part); shipmode and the date ordering are residuals.
  ScanPredicate pred;
  pred.column = li::kShipDate;
  pred.lo = DateDays(1993, 11, 25);
  pred.hi = DateDays(1995, 1, 1);
  const int64_t receipt_lo = DateDays(1994, 1, 1);
  const int64_t receipt_hi = DateDays(1995, 1, 1);
  pred.residual = [=](const Tuple& t) {
    const std::string& mode = t[li::kShipMode].AsString();
    if (mode != "MAIL" && mode != "SHIP") return false;
    const int64_t ship = t[li::kShipDate].AsInt64();
    const int64_t commit = t[li::kCommitDate].AsInt64();
    const int64_t receipt = t[li::kReceiptDate].AsInt64();
    return commit < receipt && ship < commit && receipt >= receipt_lo &&
           receipt < receipt_hi;
  };

  const AccessPath* li_path = nullptr;
  std::unique_ptr<Operator> scan =
      MakeLineitemScan(db, pred, lineitem_path, /*need_order=*/false, dop,
                       &li_path);

  // INLJ with ORDERS on the ORDERS PK; joined = L(14) ++ O(6).
  auto join = std::make_unique<IndexNestedLoopJoinOp>(
      std::move(scan), &db.orders_pk_index(), li::kOrderKey);
  constexpr int kJoinedPriority = li::kNumColumns + ord::kOrderPriority;

  // Q12's two output numbers: high-priority and low-priority line counts.
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kSum, [=](const Tuple& t) {
                    const std::string& p = t[kJoinedPriority].AsString();
                    return (p == "1-URGENT" || p == "2-HIGH") ? 1.0 : 0.0;
                  }});
  aggs.push_back({AggFn::kSum, [=](const Tuple& t) {
                    const std::string& p = t[kJoinedPriority].AsString();
                    return (p == "1-URGENT" || p == "2-HIGH") ? 0.0 : 1.0;
                  }});
  auto agg = std::make_unique<HashAggregateOp>(
      engine, std::move(join), std::vector<int>{}, std::move(aggs));
  return Finish(std::move(agg), li_path);
}

QueryOutput RunQ19(const TpchDb& db, PathKind lineitem_path,
                  uint32_t dop) {
  Engine* engine = db.engine();
  // Whole shipdate range; the selective work is the residual + the part
  // branches, which is what made the optimizer's estimate so fragile.
  ScanPredicate pred;
  pred.column = li::kShipDate;
  pred.residual = [](const Tuple& t) {
    const std::string& mode = t[li::kShipMode].AsString();
    return (mode == "AIR" || mode == "REG AIR") &&
           t[li::kQuantity].AsDouble() <= 30.0;
  };

  const AccessPath* li_path = nullptr;
  std::unique_ptr<Operator> scan =
      MakeLineitemScan(db, pred, lineitem_path, /*need_order=*/false, dop,
                       &li_path);

  // INLJ with PART; joined = L(14) ++ P(3).
  auto join = std::make_unique<IndexNestedLoopJoinOp>(
      std::move(scan), &db.part_pk_index(), li::kPartKey);
  constexpr int kPType = li::kNumColumns + part::kType;

  auto filter = std::make_unique<FilterOp>(
      engine, std::move(join), [=](const Tuple& t) {
        const std::string& type = t[kPType].AsString();
        const double qty = t[li::kQuantity].AsDouble();
        const bool b1 = type.rfind("PROMO", 0) == 0 && qty >= 1 && qty <= 11;
        const bool b2 =
            type.rfind("STANDARD", 0) == 0 && qty >= 10 && qty <= 20;
        const bool b3 = type.rfind("SMALL", 0) == 0 && qty >= 20 && qty <= 30;
        return b1 || b2 || b3;
      });

  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kSum, [](const Tuple& t) {
                    return t[li::kExtendedPrice].AsDouble() *
                           (1.0 - t[li::kDiscount].AsDouble());
                  }});
  auto agg = std::make_unique<HashAggregateOp>(
      engine, std::move(filter), std::vector<int>{}, std::move(aggs));
  return Finish(std::move(agg), li_path);
}

QueryOutput RunQuery(int query, const TpchDb& db, PathKind lineitem_path,
                     uint32_t dop) {
  switch (query) {
    case 1:
      return RunQ1(db, lineitem_path, dop);
    case 4:
      return RunQ4(db, lineitem_path, dop);
    case 6:
      return RunQ6(db, lineitem_path, dop);
    case 7:
      return RunQ7(db, lineitem_path, dop);
    case 12:
      return RunQ12(db, lineitem_path, dop);
    case 14:
      return RunQ14(db, lineitem_path, dop);
    case 19:
      return RunQ19(db, lineitem_path, dop);
    default:
      SMOOTHSCAN_CHECK(false);
  }
  return {};
}

PathKind PlainPostgresChoice(int query) {
  // Section VI-B: Q1 -> Sort (bitmap heap) scan; Q4 -> full scan;
  // Q6, Q7, Q14 -> index scan.
  switch (query) {
    case 1:
      return PathKind::kSortScan;
    case 4:
      return PathKind::kFullScan;
    case 6:
    case 7:
    case 12:
    case 14:
    case 19:
      return PathKind::kIndexScan;
    default:
      SMOOTHSCAN_CHECK(false);
  }
  return PathKind::kFullScan;
}

double PaperLineitemSelectivity(int query) {
  switch (query) {
    case 1:
      return 0.98;
    case 4:
      return 0.65;
    case 6:
      return 0.02;
    case 7:
      return 0.30;
    case 12:
      return 0.17;  // Shipdate window serviced by the index.
    case 14:
      return 0.01;
    case 19:
      return 1.00;  // Unbounded shipdate range; residuals do the filtering.
    default:
      SMOOTHSCAN_CHECK(false);
  }
  return 0.0;
}

}  // namespace smoothscan::tpch
