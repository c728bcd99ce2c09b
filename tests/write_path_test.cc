// Write-path tests: slotted-page mutation primitives, free-space-map re-use,
// insert/update/delete round-trips visible through index and scan paths,
// scan-vs-writer snapshot isolation (multisets AND bit-identical simulated
// cost), B+-tree consistency under mixed mutations, dirty-page write-back
// accounting (pin-aware, deterministic across admission levels), the
// SetMirror write-I/O audit, and shared-scan group invalidation at publish.

#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "access/full_scan.h"
#include "access/index_scan.h"
#include "common/rng.h"
#include "engine/query_engine.h"
#include "sharing/scan_sharing.h"
#include "sharing/shared_scan_path.h"
#include "storage/engine.h"
#include "workload/micro_bench.h"
#include "workload/workload_driver.h"
#include "write/free_space_map.h"
#include "write/table_version.h"
#include "write/table_writer.h"

namespace smoothscan {
namespace {

// ---------- Page mutation primitives ----------

std::vector<uint8_t> Bytes(uint8_t fill, size_t n) {
  return std::vector<uint8_t>(n, fill);
}

TEST(PageWriteTest, DeleteTombstonesAndRecycles) {
  Page page(512);
  std::vector<uint8_t> a = Bytes(0xAA, 40), b = Bytes(0xBB, 40);
  const SlotId sa = page.Insert(a.data(), 40).value();
  const SlotId sb = page.Insert(b.data(), 40).value();
  ASSERT_TRUE(page.IsLive(sa));
  page.Delete(sa);
  EXPECT_FALSE(page.IsLive(sa));
  EXPECT_TRUE(page.IsLive(sb));
  EXPECT_EQ(page.live_slots(), 1);
  EXPECT_EQ(page.frag_bytes(), 40u);
  uint32_t size = 7;
  EXPECT_EQ(page.GetTuple(sa, &size), nullptr);
  EXPECT_EQ(size, 0u);

  // The next insert recycles the tombstoned slot id.
  std::vector<uint8_t> c = Bytes(0xCC, 20);
  const SlotId sc = page.Insert(c.data(), 20).value();
  EXPECT_EQ(sc, sa);
  EXPECT_EQ(page.num_slots(), 2);
  const uint8_t* data = page.GetTuple(sc, &size);
  ASSERT_EQ(size, 20u);
  EXPECT_EQ(data[0], 0xCC);
}

TEST(PageWriteTest, UpdateInPlaceAndGrowing) {
  Page page(512);
  std::vector<uint8_t> a = Bytes(0xAA, 60);
  const SlotId s = page.Insert(a.data(), 60).value();
  // Shrink in place: tail becomes fragmentation.
  std::vector<uint8_t> small = Bytes(0x11, 20);
  ASSERT_TRUE(page.Update(s, small.data(), 20).ok());
  EXPECT_EQ(page.frag_bytes(), 40u);
  uint32_t size = 0;
  EXPECT_EQ(page.GetTuple(s, &size)[0], 0x11);
  EXPECT_EQ(size, 20u);
  // Grow: relocates within the page, same slot id.
  std::vector<uint8_t> big = Bytes(0x22, 120);
  ASSERT_TRUE(page.Update(s, big.data(), 120).ok());
  const uint8_t* data = page.GetTuple(s, &size);
  ASSERT_EQ(size, 120u);
  EXPECT_EQ(data[119], 0x22);
  EXPECT_EQ(page.live_slots(), 1);
}

TEST(PageWriteTest, CompactionReclaimsFragmentation) {
  Page page(512);
  // Fill the page, then punch holes; a tuple that only fits after
  // compaction must still insert.
  std::vector<SlotId> slots;
  std::vector<uint8_t> t = Bytes(0x33, 40);
  while (page.Fits(40)) slots.push_back(page.Insert(t.data(), 40).value());
  ASSERT_GE(slots.size(), 8u);
  for (size_t i = 0; i < slots.size(); i += 2) page.Delete(slots[i]);
  const uint32_t contiguous = page.free_space();
  std::vector<uint8_t> big = Bytes(0x44, 100);
  ASSERT_GT(100u, contiguous);  // Would not fit without compaction.
  ASSERT_TRUE(page.FitsWithCompaction(100));
  const SlotId s = page.Insert(big.data(), 100).value();
  uint32_t size = 0;
  EXPECT_EQ(page.GetTuple(s, &size)[0], 0x44);
  ASSERT_EQ(size, 100u);
  // Survivors kept their slot ids and bytes.
  for (size_t i = 1; i < slots.size(); i += 2) {
    const uint8_t* data = page.GetTuple(slots[i], &size);
    ASSERT_EQ(size, 40u);
    EXPECT_EQ(data[0], 0x33);
  }
}

// ---------- FreeSpaceMap ----------

TEST(FreeSpaceMapTest, FirstFitAndGrowth) {
  FreeSpaceMap fsm;
  fsm.SetPage(0, 10);
  fsm.SetPage(1, 100);
  fsm.SetPage(2, 500);
  EXPECT_EQ(fsm.FindPageWithSpace(50), 1u);
  EXPECT_EQ(fsm.FindPageWithSpace(200), 2u);
  EXPECT_EQ(fsm.FindPageWithSpace(501), kInvalidPageId);
  fsm.SetPage(1, 20);  // Consumed.
  EXPECT_EQ(fsm.FindPageWithSpace(50), 2u);
  fsm.SetPage(3, 800);  // Appended page.
  EXPECT_EQ(fsm.num_pages(), 4u);
  EXPECT_EQ(fsm.FindPageWithSpace(600), 3u);
}

// ---------- Fixture: small mutable table with an index ----------

struct WriteDb {
  explicit WriteDb(uint64_t tuples = 5000) {
    EngineOptions eo;
    eo.buffer_pool_pages = 256;
    engine = std::make_unique<Engine>(eo);
    MicroBenchSpec spec;
    spec.num_tuples = tuples;
    db = std::make_unique<MicroBenchDb>(engine.get(), spec);
    registry = std::make_unique<TableVersionRegistry>(engine.get());
    writer = std::make_unique<TableWriter>(
        db->mutable_heap(), std::vector<BPlusTree*>{db->mutable_index()},
        registry.get());
  }

  ExecContext ctx() { return EngineContext(engine.get()); }

  /// Oracle: multiset of (c1, c2) over live tuples, read directly.
  std::multiset<std::pair<int64_t, int64_t>> Oracle() const {
    std::multiset<std::pair<int64_t, int64_t>> out;
    db->heap().ForEachDirect([&](Tid, const Tuple& t) {
      out.insert({t[0].AsInt64(), t[1].AsInt64()});
    });
    return out;
  }

  /// Multiset of (c1, c2) produced by a full scan through the engine.
  std::multiset<std::pair<int64_t, int64_t>> ScanAll() {
    std::multiset<std::pair<int64_t, int64_t>> out;
    FullScan scan(&db->heap(), db->PredicateForSelectivity(1.0));
    EXPECT_TRUE(scan.Open().ok());
    TupleBatch batch;
    while (scan.NextBatch(&batch)) {
      for (size_t i = 0; i < batch.size(); ++i) {
        out.insert({batch.row(i)[0].AsInt64(), batch.row(i)[1].AsInt64()});
      }
    }
    scan.Close();
    return out;
  }

  /// Multiset of (c1, c2) produced through the secondary index.
  std::multiset<std::pair<int64_t, int64_t>> IndexAll() {
    std::multiset<std::pair<int64_t, int64_t>> out;
    IndexScan scan(&db->index(), db->PredicateForSelectivity(1.0));
    EXPECT_TRUE(scan.Open().ok());
    TupleBatch batch;
    while (scan.NextBatch(&batch)) {
      for (size_t i = 0; i < batch.size(); ++i) {
        out.insert({batch.row(i)[0].AsInt64(), batch.row(i)[1].AsInt64()});
      }
    }
    scan.Close();
    return out;
  }

  std::unique_ptr<Engine> engine;
  std::unique_ptr<MicroBenchDb> db;
  std::unique_ptr<TableVersionRegistry> registry;
  std::unique_ptr<TableWriter> writer;
};

Tuple MakeRow(const Schema& schema, int64_t c1, int64_t c2) {
  Tuple t(schema.num_columns());
  t[0] = Value::Int64(c1);
  t[1] = Value::Int64(c2);
  for (size_t c = 2; c < schema.num_columns(); ++c) {
    t[c] = Value::Int64(static_cast<int64_t>(c));
  }
  return t;
}

// ---------- Round-trips via index and scan ----------

TEST(TableWriterTest, InsertUpdateDeleteRoundTrip) {
  WriteDb w(2000);
  const Schema& schema = w.db->heap().schema();
  auto expected = w.Oracle();

  // Inserts land (publish at quiescence) and are visible via scan AND index.
  std::vector<Tid> inserted;
  for (int i = 0; i < 500; ++i) {
    const int64_t c1 = 1000000 + i;
    const int64_t c2 = 77777 + (i % 5);
    Result<Tid> tid = w.writer->Insert(MakeRow(schema, c1, c2), w.ctx());
    ASSERT_TRUE(tid.ok());
    inserted.push_back(tid.value());
    expected.insert({c1, c2});
  }
  EXPECT_EQ(w.ScanAll(), expected);
  EXPECT_EQ(w.IndexAll(), expected);
  EXPECT_EQ(w.db->heap().num_tuples(), 2500u);
  w.db->index().CheckInvariants();

  // Updates: change the indexed key; index must follow.
  for (int i = 0; i < 100; ++i) {
    const int64_t old_c1 = 1000000 + i;
    const int64_t old_c2 = 77777 + (i % 5);
    const int64_t new_c2 = 88888;
    Result<Tid> moved =
        w.writer->Update(inserted[i], MakeRow(schema, old_c1, new_c2), w.ctx());
    ASSERT_TRUE(moved.ok());
    expected.erase(expected.find({old_c1, old_c2}));
    expected.insert({old_c1, new_c2});
  }
  EXPECT_EQ(w.ScanAll(), expected);
  EXPECT_EQ(w.IndexAll(), expected);
  w.db->index().CheckInvariants();

  // Deletes: gone from scan and index; double delete reports NotFound.
  for (int i = 100; i < 200; ++i) {
    ASSERT_TRUE(w.writer->Delete(inserted[i], w.ctx()).ok());
    expected.erase(
        expected.find({1000000 + i, 77777 + (i % 5)}));
  }
  EXPECT_EQ(w.writer->Delete(inserted[150], w.ctx()).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(w.ScanAll(), expected);
  EXPECT_EQ(w.IndexAll(), expected);
  EXPECT_EQ(w.db->heap().num_tuples(), 2400u);
  w.db->index().CheckInvariants();
}

TEST(TableWriterTest, OversizedTupleRejectedGracefully) {
  // A tuple that cannot fit even an empty page must fail with
  // kResourceExhausted (not abort), for insert and for update — the
  // moved-update path must not half-apply.
  EngineOptions eo;
  eo.page_size = 256;  // 10 INT64 columns serialize to 80 bytes; strings
  Engine engine(eo);   // can exceed a tiny page.
  HeapFile heap(&engine, "t", Schema({{"k", ValueType::kInt64},
                                      {"s", ValueType::kString}}));
  TableVersionRegistry registry(&engine);
  TableWriter writer(&heap, {}, &registry);
  const ExecContext ctx = EngineContext(&engine);

  Tuple small{Value::Int64(1), Value::String("x")};
  Result<Tid> tid = writer.Insert(small, ctx);
  ASSERT_TRUE(tid.ok());

  Tuple huge{Value::Int64(2), Value::String(std::string(1000, 'y'))};
  EXPECT_EQ(writer.Insert(huge, ctx).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(writer.Update(tid.value(), huge, ctx).status().code(),
            StatusCode::kResourceExhausted);
  // The failed update left the original tuple untouched and live.
  TableVersionRegistry::ReadLease lease = registry.AcquireRead(heap.file_id());
  EXPECT_EQ(heap.Read(tid.value())[1].AsString(), "x");
  EXPECT_EQ(heap.num_tuples(), 1u);
}

// ---------- Free-space-map re-use ----------

TEST(TableWriterTest, FreeSpaceMapReusesDeletedSpace) {
  WriteDb w(2000);
  const Schema& schema = w.db->heap().schema();
  const size_t pages_before = w.db->heap().num_pages();

  // Delete a swath of early tuples, then insert the same number of
  // same-sized tuples: first-fit placement must re-fill the holes and the
  // table must not grow by a single page.
  int deleted = 0;
  for (PageId p = 0; p < 3; ++p) {
    const Page& page = w.engine->storage().GetPage(w.db->heap().file_id(), p);
    for (SlotId s = 0; s < page.num_slots(); ++s) {
      ASSERT_TRUE(w.writer->Delete(Tid{p, s}, w.ctx()).ok());
      ++deleted;
    }
  }
  ASSERT_GT(deleted, 50);
  for (int i = 0; i < deleted; ++i) {
    Result<Tid> tid =
        w.writer->Insert(MakeRow(schema, 2000000 + i, 1), w.ctx());
    ASSERT_TRUE(tid.ok());
    EXPECT_LT(tid.value().page_id, 3u);  // Holes are re-used, in page order.
  }
  EXPECT_EQ(w.db->heap().num_pages(), pages_before);
  EXPECT_GT(w.writer->stats().recycled_inserts, 0u);
  EXPECT_EQ(w.writer->stats().pages_appended, 0u);

  // One more insert of a full page's worth must eventually append.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(w.writer->Insert(MakeRow(schema, 3000000 + i, 2), w.ctx()).ok());
  }
  EXPECT_GT(w.db->heap().num_pages(), pages_before);
  EXPECT_GT(w.writer->stats().pages_appended, 0u);
}

// ---------- Snapshot isolation: multiset and bit-identical cost ----------

TEST(SnapshotIsolationTest, ScanUnchangedByConcurrentWrites) {
  // Reference run: identical db, no writer anywhere near it.
  WriteDb ref(3000);
  const auto ref_before = ref.engine->TotalTime();
  const auto ref_result = ref.ScanAll();
  const double ref_cost = ref.engine->TotalTime() - ref_before;

  WriteDb w(3000);
  const Schema& schema = w.db->heap().schema();
  const auto snapshot = w.Oracle();

  // Open a scan mid-flight: lease held, a large write batch lands while the
  // scan is parked between batches.
  TableVersionRegistry::ReadLease lease =
      w.registry->AcquireRead(w.db->heap().file_id());
  // The writer charges a private stack (as a write query would under the
  // engine), so the engine counters measure the scan alone.
  PrivateContext wctx(w.engine.get());
  const double before = w.engine->TotalTime();
  FullScan scan(&w.db->heap(), w.db->PredicateForSelectivity(1.0));
  ASSERT_TRUE(scan.Open().ok());
  TupleBatch batch;
  std::multiset<std::pair<int64_t, int64_t>> seen;
  bool wrote = false;
  while (scan.NextBatch(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      seen.insert({batch.row(i)[0].AsInt64(), batch.row(i)[1].AsInt64()});
    }
    if (!wrote) {
      // Mutations race the scan: inserts, deletes of pages the scan has not
      // reached yet, updates of pages it already passed.
      for (int i = 0; i < 300; ++i) {
        ASSERT_TRUE(w.writer->Insert(MakeRow(schema, 5000000 + i, 3),
                                     wctx.ctx())
                        .ok());
      }
      for (SlotId s = 0; s < 20; ++s) {
        (void)w.writer->Delete(Tid{static_cast<PageId>(
                                       w.db->heap().num_pages() - 1),
                                   s},
                               wctx.ctx());
        (void)w.writer->Update(Tid{0, s}, MakeRow(schema, -1, 4), wctx.ctx());
      }
      EXPECT_TRUE(w.registry->era_open(w.db->heap().file_id()));
      wrote = true;
    }
  }
  scan.Close();
  const double cost = w.engine->TotalTime() - before;

  // The scan saw exactly the pre-write snapshot, at exactly the undisturbed
  // run's simulated cost.
  EXPECT_EQ(seen, snapshot);
  EXPECT_EQ(cost, ref_cost);  // Bit-identical doubles.

  // After the lease drops, the era publishes and a fresh scan sees it all.
  lease.Release();
  EXPECT_FALSE(w.registry->era_open(w.db->heap().file_id()));
  EXPECT_EQ(w.registry->published_epoch(w.db->heap().file_id()), 1u);
  const auto after = w.ScanAll();
  EXPECT_EQ(after, w.Oracle());
  EXPECT_NE(after, snapshot);
  EXPECT_EQ(w.IndexAll(), after);
  w.db->index().CheckInvariants();
}

// ---------- B+-tree consistency under mixed mutations ----------

TEST(BPlusTreeWriteTest, MixedMutationsKeepInvariants) {
  EngineOptions eo;
  Engine engine(eo);
  HeapFile heap(&engine, "t", MakeIntSchema(2));
  // Deep little tree so splits and empty leaves actually occur.
  BPlusTreeOptions opts;
  opts.fanout_override = 4;
  opts.leaf_capacity_override = 4;
  BPlusTree tree(&engine, "t_idx", &heap, 1, opts);

  std::multimap<int64_t, Tid> reference;
  Rng rng(99);
  Tuple row(2);
  for (int i = 0; i < 2000; ++i) {
    row[0] = Value::Int64(i);
    const int64_t key = rng.UniformInt(0, 50);  // Heavy duplicates.
    row[1] = Value::Int64(key);
    const Tid tid = heap.Append(row).value();
    tree.Insert(key, tid);
    reference.emplace(key, tid);
  }
  tree.CheckInvariants();

  // Interleave removes (including whole-key wipes that empty leaves) with
  // fresh inserts.
  for (int round = 0; round < 40; ++round) {
    const int64_t key = rng.UniformInt(0, 50);
    auto [lo, hi] = reference.equal_range(key);
    std::vector<Tid> victims;
    for (auto it = lo; it != hi; ++it) victims.push_back(it->second);
    for (const Tid& tid : victims) {
      ASSERT_TRUE(tree.Remove(key, tid));
    }
    reference.erase(key);
    tree.CheckInvariants();
    EXPECT_FALSE(tree.Remove(key, Tid{0, 0}));  // Already gone.
    if (round % 3 == 0) {
      row[0] = Value::Int64(100000 + round);
      row[1] = Value::Int64(key);
      const Tid tid = heap.Append(row).value();
      tree.Insert(key, tid);
      reference.emplace(key, tid);
      tree.CheckInvariants();
    }
  }
  ASSERT_EQ(tree.num_entries(), reference.size());

  // Full iteration equals the reference, in (key, Tid) order, across the
  // deletion-emptied leaves.
  std::vector<std::pair<int64_t, Tid>> expected(reference.begin(),
                                                reference.end());
  size_t i = 0;
  for (auto it = tree.Seek(std::numeric_limits<int64_t>::min()); it.Valid();
       it.Next()) {
    ASSERT_LT(i, expected.size());
    EXPECT_EQ(it.key(), expected[i].first);
    ++i;
  }
  EXPECT_EQ(i, expected.size());
  // Seek lands correctly even when the run starts behind empty leaves.
  for (int64_t key = 0; key <= 51; ++key) {
    auto it = tree.Seek(key);
    auto ref_it = reference.lower_bound(key);
    if (ref_it == reference.end()) {
      EXPECT_FALSE(it.Valid());
    } else {
      ASSERT_TRUE(it.Valid());
      EXPECT_EQ(it.key(), ref_it->first);
    }
  }
}

// ---------- Write-back accounting ----------

TEST(WriteBackTest, PinAwareFlushRetriesDirtyPages) {
  EngineOptions eo;
  eo.buffer_pool_pages = 64;
  Engine engine(eo);
  const FileId file = engine.storage().CreateFile("wb");
  for (int i = 0; i < 8; ++i) engine.storage().AppendPage(file);
  BufferPool& pool = engine.pool();

  pool.MarkDirty(file, 1);
  pool.MarkDirty(file, 2);
  pool.MarkDirty(file, 3);
  EXPECT_EQ(pool.dirty_pages(), 3u);

  // Pin page 2: FlushAll writes back 1 and 3 (one coalesced... they are not
  // adjacent: pages 1 and 3 → two write requests), keeps 2 dirty+resident.
  PageGuard guard = pool.Pin(file, 2);
  const IoStats before = engine.disk().stats();
  const size_t pinned = pool.FlushAll();
  IoStats flushed = engine.disk().stats() - before;
  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(flushed.pages_written, 2u);
  EXPECT_EQ(pool.dirty_pages(), 1u);  // Page 2 queued, not dropped.

  // Unpin and flush again: the deferred write-back happens exactly once.
  guard.Release();
  const IoStats before2 = engine.disk().stats();
  EXPECT_EQ(pool.FlushAll(), 0u);
  flushed = engine.disk().stats() - before2;
  EXPECT_EQ(flushed.pages_written, 1u);
  EXPECT_EQ(pool.dirty_pages(), 0u);

  // Adjacent dirty pages coalesce into one extent write request.
  pool.MarkDirty(file, 4);
  pool.MarkDirty(file, 5);
  pool.MarkDirty(file, 6);
  const IoStats before3 = engine.disk().stats();
  pool.FlushAll();
  flushed = engine.disk().stats() - before3;
  EXPECT_EQ(flushed.pages_written, 3u);
  EXPECT_EQ(flushed.io_requests, 1u);
}

TEST(WriteBackTest, MirroredPoolsNeverDoubleChargeWrites) {
  EngineOptions eo;
  eo.buffer_pool_pages = 64;
  Engine engine(eo);
  const FileId file = engine.storage().CreateFile("m");
  for (int i = 0; i < 4; ++i) engine.storage().AppendPage(file);

  // Engine pool holds a dirty page; a query-private pool mirrors into it.
  engine.pool().MarkDirty(file, 0);
  PrivateContext qctx(&engine, &engine.pool());
  // The mirrored fetch pins the dirty page in the engine pool — it must not
  // clear the dirty bit, and flushing the *private* pool must charge no
  // write anywhere (its frames are clean by construction).
  PageGuard g = qctx.pool().Fetch(file, 0);
  EXPECT_EQ(engine.pool().dirty_pages(), 1u);
  const IoStats engine_before = engine.disk().stats();
  const IoStats query_before = qctx.disk().stats();
  qctx.pool().FlushAll();
  EXPECT_EQ((engine.disk().stats() - engine_before).pages_written, 0u);
  EXPECT_EQ((qctx.disk().stats() - query_before).pages_written, 0u);
  g.Release();
  // The engine pool's own flush charges the write-back exactly once, on the
  // engine stream.
  engine.pool().FlushAll();
  EXPECT_EQ((engine.disk().stats() - engine_before).pages_written, 1u);
  EXPECT_EQ((qctx.disk().stats() - query_before).pages_written, 0u);
}

/// Runs the mixed workload at the given admission cap and DOP; returns
/// (write-back pages at final flush, per-read sim costs).
std::pair<uint64_t, std::vector<double>> RunMixed(uint32_t cap, uint32_t dop) {
  EngineOptions eo;
  eo.buffer_pool_pages = 256;
  Engine engine(eo);
  MicroBenchSpec spec;
  spec.num_tuples = 20000;
  MicroBenchDb db(&engine, spec);
  TableVersionRegistry registry(&engine);
  TableWriter writer(db.mutable_heap(),
                     std::vector<BPlusTree*>{db.mutable_index()}, &registry);
  QueryEngineOptions qeo;
  qeo.max_admitted = cap;
  qeo.versions = &registry;
  QueryEngine qe(&engine, qeo);
  WorkloadDriver driver(&engine, &db, &qe);
  WorkloadOptions wo;
  wo.clients = 4;
  wo.dop = dop;
  wo.policy = DriverPolicy::kSmoothScan;
  wo.seed = 5;
  wo.phases = WorkloadOptions::MixedWritePhases(/*queries_per_phase=*/2,
                                                /*write_queries_per_phase=*/3);
  wo.writer = &writer;
  wo.versions = &registry;
  wo.phase_barrier = true;
  const WorkloadReport report = driver.Run(wo);

  std::vector<double> read_costs;
  for (const QueryMetrics& m : report.per_query) {
    if (!m.write) read_costs.push_back(m.sim_time);
  }
  const IoStats before = engine.disk().stats();
  engine.pool().FlushAll();
  return {(engine.disk().stats() - before).pages_written,
          std::move(read_costs)};
}

TEST(WriteBackTest, AccountingDeterministicAcrossAdmissionAndDop) {
  // Same seed → same op stream → same dirty set and same per-read costs, no
  // matter how many queries run concurrently (1/2/8). The morsel-parallel
  // leaf is a different operator with its own (equally deterministic) cost
  // profile, so DOP 2 is compared against DOP 2, across admission levels.
  const auto base = RunMixed(1, 0);
  EXPECT_GT(base.first, 0u);
  for (const uint32_t cap : {2u, 8u}) {
    const auto run = RunMixed(cap, 0);
    EXPECT_EQ(run.first, base.first) << "cap=" << cap;
    EXPECT_EQ(run.second, base.second) << "cap=" << cap;
  }
  const auto base_dop = RunMixed(1, 2);
  const auto dop = RunMixed(8, 2);
  EXPECT_EQ(dop.first, base_dop.first);
  EXPECT_EQ(dop.second, base_dop.second);
  EXPECT_EQ(base_dop.first, base.first);  // The dirty set is DOP-invariant.
}

// ---------- Shared-scan groups across publishes ----------

TEST(SharedScanWriteTest, PublishInvalidatesParkedGroupAndNewLapSeesWrites) {
  EngineOptions eo;
  eo.buffer_pool_pages = 512;
  Engine engine(eo);
  MicroBenchSpec spec;
  spec.num_tuples = 20000;
  MicroBenchDb db(&engine, spec);
  TableVersionRegistry registry(&engine);
  TableWriter writer(db.mutable_heap(),
                     std::vector<BPlusTree*>{db.mutable_index()}, &registry);
  ScanSharingCoordinator sharing(&engine);
  QueryEngineOptions qeo;
  qeo.max_admitted = 4;
  qeo.sharing = &sharing;
  qeo.versions = &registry;
  QueryEngine qe(&engine, qeo);

  auto shared_count = [&](int64_t hi) {
    QuerySpec spec;
    spec.index = &db.index();
    spec.predicate = db.PredicateForSelectivity(1.0);
    spec.predicate.hi = hi;
    spec.kind = PathKind::kSharedScan;
    return qe.WaitSpec(qe.SubmitSpec(std::move(spec))).metrics.tuples;
  };

  const uint64_t before = shared_count(1);  // Tuples with c2 == 0.
  ASSERT_NE(sharing.GroupFor(&db.heap()), nullptr);  // Parked group exists.
  const size_t pages_before = db.heap().num_pages();

  // A write query grows the table and piles 500 tuples into c2 == 0.
  QuerySpec wspec;
  wspec.writer = &writer;
  for (int i = 0; i < 500; ++i) {
    wspec.write_ops.push_back(
        WriteOp::MakeInsert(MakeRow(db.heap().schema(), 7000000 + i, 0)));
  }
  ASSERT_TRUE(qe.WaitSpec(qe.SubmitSpec(std::move(wspec))).status.ok());
  // Quiescent engine → the era published and the hook retired the group.
  EXPECT_EQ(sharing.GroupFor(&db.heap()), nullptr);
  EXPECT_GT(db.heap().num_pages(), pages_before);

  // The next shared lap forms a fresh group over the grown table and sees
  // every new tuple.
  EXPECT_EQ(shared_count(1), before + 500);
  ASSERT_NE(sharing.GroupFor(&db.heap()), nullptr);
}

// ---------- Writer vs. scanner under real concurrency (TSan fodder) ----------

TEST(WriteConcurrencyTest, ScannersRaceWritersSafely) {
  EngineOptions eo;
  eo.buffer_pool_pages = 256;
  Engine engine(eo);
  MicroBenchSpec spec;
  spec.num_tuples = 10000;
  MicroBenchDb db(&engine, spec);
  TableVersionRegistry registry(&engine);
  TableWriter writer(db.mutable_heap(),
                     std::vector<BPlusTree*>{db.mutable_index()}, &registry);
  QueryEngineOptions qeo;
  qeo.max_admitted = 4;
  qeo.versions = &registry;
  QueryEngine qe(&engine, qeo);

  const uint64_t initial = db.heap().num_tuples();
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int q = 0; q < 6; ++q) {
        QuerySpec spec;
        spec.index = &db.index();
        spec.predicate = db.PredicateForSelectivity(0.5);
        spec.kind = q % 2 == 0 ? PathKind::kFullScan : PathKind::kSmoothScan;
        const QueryResult res = qe.WaitSpec(qe.SubmitSpec(std::move(spec)));
        ASSERT_TRUE(res.status.ok());
      }
    });
  }
  threads.emplace_back([&] {
    Rng rng(3);
    for (int b = 0; b < 10; ++b) {
      QuerySpec spec;
      spec.writer = &writer;
      for (int i = 0; i < 20; ++i) {
        spec.write_ops.push_back(WriteOp::MakeInsert(MakeRow(
            db.heap().schema(), 9000000 + b * 20 + i,
            rng.UniformInt(0, 100000))));
      }
      ASSERT_TRUE(qe.WaitSpec(qe.SubmitSpec(std::move(spec))).status.ok());
    }
  });
  for (std::thread& t : threads) t.join();
  qe.DrainAll();

  // All writes landed (publishes interleaved with scans at quiescent gaps).
  TableVersionRegistry::ReadLease lease =
      registry.AcquireRead(db.heap().file_id());
  lease.Release();
  EXPECT_EQ(db.heap().num_tuples(), initial + 200);
  db.index().CheckInvariants();
}

}  // namespace
}  // namespace smoothscan
