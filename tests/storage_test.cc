// Unit tests for the storage substrate: slotted pages, schemas/tuples, the
// simulated disk's sequential/random classification, the LRU buffer pool and
// heap files.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/rng.h"
#include "storage/buffer_pool.h"
#include "storage/engine.h"
#include "storage/heap_file.h"
#include "storage/page.h"
#include "storage/schema.h"
#include "storage/sim_disk.h"

namespace smoothscan {
namespace {

// ---------- Page ----------

TEST(PageTest, EmptyPage) {
  Page page(4096);
  EXPECT_EQ(page.num_slots(), 0);
  EXPECT_EQ(page.page_size(), 4096u);
  EXPECT_GT(page.free_space(), 4000u);
}

TEST(PageTest, InsertAndRead) {
  Page page(4096);
  const uint8_t data[] = {1, 2, 3, 4, 5};
  Result<SlotId> slot = page.Insert(data, sizeof(data));
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(slot.value(), 0);
  EXPECT_EQ(page.num_slots(), 1);

  uint32_t size = 0;
  const uint8_t* read = page.GetTuple(0, &size);
  ASSERT_EQ(size, sizeof(data));
  EXPECT_EQ(0, std::memcmp(read, data, size));
}

TEST(PageTest, MultipleInsertsPreserveContent) {
  Page page(4096);
  std::vector<std::vector<uint8_t>> tuples;
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    std::vector<uint8_t> t(static_cast<size_t>(rng.UniformInt(1, 40)));
    for (auto& b : t) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    ASSERT_TRUE(page.Insert(t.data(), static_cast<uint32_t>(t.size())).ok());
    tuples.push_back(std::move(t));
  }
  ASSERT_EQ(page.num_slots(), 50);
  for (SlotId s = 0; s < 50; ++s) {
    uint32_t size = 0;
    const uint8_t* data = page.GetTuple(s, &size);
    ASSERT_EQ(size, tuples[s].size());
    EXPECT_EQ(0, std::memcmp(data, tuples[s].data(), size));
  }
}

TEST(PageTest, RejectsWhenFull) {
  Page page(256);
  const std::vector<uint8_t> big(100, 7);
  ASSERT_TRUE(page.Insert(big.data(), 100).ok());
  ASSERT_TRUE(page.Insert(big.data(), 100).ok());
  // Third 100-byte tuple cannot fit in a 256-byte page with header + slots.
  Result<SlotId> r = page.Insert(big.data(), 100);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(page.num_slots(), 2);
}

TEST(PageTest, FitsIsConsistentWithInsert) {
  Page page(512);
  const std::vector<uint8_t> t(64, 1);
  while (page.Fits(64)) {
    ASSERT_TRUE(page.Insert(t.data(), 64).ok());
  }
  EXPECT_FALSE(page.Insert(t.data(), 64).ok());
}

// ---------- Schema / tuple serialization ----------

TEST(SchemaTest, FixedWidthRoundTrip) {
  const Schema schema = MakeIntSchema(3);
  const Tuple t = {Value::Int64(1), Value::Int64(-2), Value::Int64(3)};
  std::vector<uint8_t> buf;
  schema.Serialize(t, &buf);
  EXPECT_EQ(buf.size(), 24u);
  EXPECT_EQ(schema.SerializedSize(t), 24u);
  const Tuple back = schema.Deserialize(buf.data(),
                                        static_cast<uint32_t>(buf.size()));
  EXPECT_EQ(back, t);
}

TEST(SchemaTest, MixedTypesRoundTrip) {
  const Schema schema({{"a", ValueType::kInt64},
                       {"b", ValueType::kDouble},
                       {"c", ValueType::kString},
                       {"d", ValueType::kDate},
                       {"e", ValueType::kString}});
  const Tuple t = {Value::Int64(-9), Value::Double(2.5),
                   Value::String("smooth"), Value::Date(8035),
                   Value::String("")};
  std::vector<uint8_t> buf;
  schema.Serialize(t, &buf);
  const Tuple back = schema.Deserialize(buf.data(),
                                        static_cast<uint32_t>(buf.size()));
  EXPECT_EQ(back, t);
}

TEST(SchemaTest, DeserializeColumnSkipsVariableFields) {
  const Schema schema({{"a", ValueType::kString},
                       {"b", ValueType::kInt64},
                       {"c", ValueType::kString}});
  const Tuple t = {Value::String("abcdef"), Value::Int64(77),
                   Value::String("xy")};
  std::vector<uint8_t> buf;
  schema.Serialize(t, &buf);
  const uint32_t size = static_cast<uint32_t>(buf.size());
  EXPECT_EQ(schema.DeserializeColumn(buf.data(), size, 0).AsString(), "abcdef");
  EXPECT_EQ(schema.DeserializeColumn(buf.data(), size, 1).AsInt64(), 77);
  EXPECT_EQ(schema.DeserializeColumn(buf.data(), size, 2).AsString(), "xy");
}

TEST(SchemaTest, FindColumn) {
  const Schema schema = MakeIntSchema(4);
  EXPECT_EQ(schema.FindColumn("c1"), 0);
  EXPECT_EQ(schema.FindColumn("c4"), 3);
  EXPECT_EQ(schema.FindColumn("nope"), -1);
}

TEST(SchemaTest, IsFixedWidth) {
  EXPECT_TRUE(MakeIntSchema(2).IsFixedWidth());
  EXPECT_FALSE(Schema({{"s", ValueType::kString}}).IsFixedWidth());
}

// ---------- SimDisk ----------

TEST(SimDiskTest, FirstAccessIsRandom) {
  SimDisk disk(DeviceProfile::Hdd());
  disk.ReadPage(0, 5);
  EXPECT_EQ(disk.stats().random_ios, 1u);
  EXPECT_EQ(disk.stats().seq_ios, 0u);
  EXPECT_DOUBLE_EQ(disk.stats().io_time, 10.0);
}

TEST(SimDiskTest, AdjacentNextPageIsSequential) {
  SimDisk disk(DeviceProfile::Hdd());
  disk.ReadPage(0, 5);
  disk.ReadPage(0, 6);
  EXPECT_EQ(disk.stats().random_ios, 1u);
  EXPECT_EQ(disk.stats().seq_ios, 1u);
  EXPECT_DOUBLE_EQ(disk.stats().io_time, 11.0);
}

TEST(SimDiskTest, BackwardAccessIsRandom) {
  SimDisk disk(DeviceProfile::Hdd());
  disk.ReadPage(0, 5);
  disk.ReadPage(0, 4);   // Backward.
  disk.ReadPage(0, 4);   // Repeat (not a forward move).
  EXPECT_EQ(disk.stats().random_ios, 3u);
  EXPECT_DOUBLE_EQ(disk.stats().io_time, 30.0);
}

TEST(SimDiskTest, ShortForwardSkipCostsPassedPages) {
  // A forward skip cheaper than a seek is charged the transfer time of the
  // passed-over pages — the nearly sequential pattern of a sorted-TID scan.
  SimDisk disk(DeviceProfile::Hdd());
  disk.ReadPage(0, 5);            // Random: 10.
  disk.ReadPage(0, 8);            // Forward skip of 3 pages: 3 * seq = 3.
  EXPECT_EQ(disk.stats().random_ios, 1u);
  EXPECT_EQ(disk.stats().seq_ios, 1u);
  EXPECT_DOUBLE_EQ(disk.stats().io_time, 13.0);
}

TEST(SimDiskTest, LongForwardSkipIsASeek) {
  SimDisk disk(DeviceProfile::Hdd());
  disk.ReadPage(0, 5);
  disk.ReadPage(0, 500);  // 495-page skip: a seek (10) is cheaper.
  EXPECT_EQ(disk.stats().random_ios, 2u);
  EXPECT_DOUBLE_EQ(disk.stats().io_time, 20.0);
}

TEST(SimDiskTest, SkipEqualToSeekCountsAsRandom) {
  SimDisk disk(DeviceProfile::Hdd());
  disk.ReadPage(0, 0);
  disk.ReadPage(0, 10);  // Skip cost 10 == rand cost 10: not cheaper.
  EXPECT_EQ(disk.stats().random_ios, 2u);
}

TEST(SimDiskTest, PositionsTrackedPerFile) {
  // Interleaved streams on different files stay sequential, matching the
  // paper's model where leaf traversal is sequential while heap look-ups
  // interleave (Eq. 11).
  SimDisk disk(DeviceProfile::Hdd());
  disk.ReadPage(0, 0);
  disk.ReadPage(1, 0);
  disk.ReadPage(0, 1);
  disk.ReadPage(1, 1);
  EXPECT_EQ(disk.stats().random_ios, 2u);
  EXPECT_EQ(disk.stats().seq_ios, 2u);
}

TEST(SimDiskTest, ExtentReadIsOneRequest) {
  SimDisk disk(DeviceProfile::Hdd(), 8192);
  disk.ReadExtent(0, 10, 16);
  EXPECT_EQ(disk.stats().io_requests, 1u);
  EXPECT_EQ(disk.stats().pages_read, 16u);
  EXPECT_EQ(disk.stats().random_ios, 1u);
  EXPECT_EQ(disk.stats().seq_ios, 15u);
  EXPECT_DOUBLE_EQ(disk.stats().io_time, 10.0 + 15.0);
  EXPECT_EQ(disk.stats().bytes_read, 16u * 8192u);
}

TEST(SimDiskTest, ExtentContinuationIsSequential) {
  SimDisk disk(DeviceProfile::Hdd());
  disk.ReadExtent(0, 0, 8);
  disk.ReadExtent(0, 8, 8);
  EXPECT_EQ(disk.stats().random_ios, 1u);
  EXPECT_EQ(disk.stats().seq_ios, 15u);
}

TEST(SimDiskTest, SsdProfileRatio) {
  SimDisk disk(DeviceProfile::Ssd());
  disk.ReadPage(0, 3);
  disk.ReadPage(0, 4);
  EXPECT_DOUBLE_EQ(disk.stats().io_time, 2.0 + 1.0);
}

TEST(SimDiskTest, ResetPositionsKeepsCounters) {
  SimDisk disk(DeviceProfile::Hdd());
  disk.ReadPage(0, 0);
  disk.ReadPage(0, 1);
  disk.ResetPositions();
  disk.ReadPage(0, 2);  // Would be sequential without the reset.
  EXPECT_EQ(disk.stats().random_ios, 2u);
  EXPECT_EQ(disk.stats().seq_ios, 1u);
}

TEST(SimDiskTest, StatsDiffOperator) {
  SimDisk disk(DeviceProfile::Hdd());
  disk.ReadPage(0, 0);
  const IoStats snap = disk.stats();
  disk.ReadPage(0, 1);
  const IoStats d = disk.stats() - snap;
  EXPECT_EQ(d.seq_ios, 1u);
  EXPECT_EQ(d.random_ios, 0u);
  EXPECT_DOUBLE_EQ(d.io_time, 1.0);
}

// ---------- BufferPool ----------

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : storage_(8192), disk_(DeviceProfile::Hdd(), 8192) {
    file_ = storage_.CreateFile("t");
    for (int i = 0; i < 64; ++i) storage_.AppendPage(file_);
  }

  StorageManager storage_;
  SimDisk disk_;
  FileId file_;
};

TEST_F(BufferPoolTest, MissThenHit) {
  BufferPool pool(&storage_, &disk_, 16);
  pool.Fetch(file_, 3);
  EXPECT_EQ(pool.stats().misses, 1u);
  const double t = disk_.stats().io_time;
  pool.Fetch(file_, 3);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_DOUBLE_EQ(disk_.stats().io_time, t);  // Hit is free.
}

TEST_F(BufferPoolTest, EvictsLeastRecentlyUsed) {
  // A single shard pins the exact global-LRU eviction order (morsel-local
  // pools are built this way); the sharded default only promises per-shard
  // LRU within the aggregate capacity bound.
  BufferPool pool(&storage_, &disk_, 2, /*num_shards=*/1);
  pool.Fetch(file_, 0);
  pool.Fetch(file_, 1);
  pool.Fetch(file_, 0);  // 0 is now MRU.
  pool.Fetch(file_, 2);  // Evicts 1.
  EXPECT_TRUE(pool.Contains(file_, 0));
  EXPECT_FALSE(pool.Contains(file_, 1));
  EXPECT_TRUE(pool.Contains(file_, 2));
}

TEST_F(BufferPoolTest, PinBlocksEvictionUntilReleased) {
  BufferPool pool(&storage_, &disk_, 2, /*num_shards=*/1);
  PageGuard guard = pool.Fetch(file_, 0);  // Pinned: LRU but unevictable.
  pool.Fetch(file_, 1);
  pool.Fetch(file_, 2);  // Must evict 1, not the pinned 0.
  EXPECT_TRUE(pool.Contains(file_, 0));
  EXPECT_FALSE(pool.Contains(file_, 1));
  EXPECT_TRUE(pool.Contains(file_, 2));
  guard.Release();
  pool.Fetch(file_, 3);  // 0 is LRU and now unpinned: evicted.
  EXPECT_FALSE(pool.Contains(file_, 0));
}

TEST_F(BufferPoolTest, GuardKeepsPageReadableAcrossFlush) {
  BufferPool pool(&storage_, &disk_, 16);
  PageGuard guard = pool.Fetch(file_, 7);
  EXPECT_EQ(pool.FlushAll(), 1u);  // Skip + report, never invalidate.
  EXPECT_TRUE(pool.Contains(file_, 7));
  EXPECT_EQ(guard->num_slots(), 0u);  // Still dereferenceable.
  guard.Release();
  EXPECT_EQ(pool.FlushAll(), 0u);
  EXPECT_FALSE(pool.Contains(file_, 7));
}

TEST_F(BufferPoolTest, PinnedPagesCounted) {
  BufferPool pool(&storage_, &disk_, 16);
  PageGuard a = pool.Fetch(file_, 1);
  PageGuard b = pool.Pin(file_, 2);
  EXPECT_EQ(pool.pinned_pages(), 2u);
  PageGuard moved = std::move(a);
  EXPECT_EQ(pool.pinned_pages(), 2u);  // Moving transfers, not duplicates.
  moved.Release();
  b.Release();
  EXPECT_EQ(pool.pinned_pages(), 0u);
}

TEST_F(BufferPoolTest, PinDoesNotChargeOrCount) {
  BufferPool pool(&storage_, &disk_, 16);
  const double t = disk_.stats().io_time;
  PageGuard g = pool.Pin(file_, 3);
  EXPECT_DOUBLE_EQ(disk_.stats().io_time, t);
  EXPECT_EQ(pool.stats().hits + pool.stats().misses, 0u);
}

TEST_F(BufferPoolTest, ShardedCapacityBoundRespected) {
  BufferPool pool(&storage_, &disk_, 8);  // Default shard count.
  for (PageId p = 0; p < 64; ++p) pool.Fetch(file_, p);
  EXPECT_LE(pool.size(), 8u);
}

TEST_F(BufferPoolTest, FlushAllMakesNextAccessCold) {
  BufferPool pool(&storage_, &disk_, 16);
  pool.Fetch(file_, 5);
  pool.FlushAll();
  EXPECT_EQ(pool.size(), 0u);
  pool.Fetch(file_, 5);
  EXPECT_EQ(pool.stats().misses, 2u);
}

TEST_F(BufferPoolTest, FetchExtentLoadsAllPages) {
  BufferPool pool(&storage_, &disk_, 32);
  pool.FetchExtent(file_, 4, 8);
  for (PageId p = 4; p < 12; ++p) EXPECT_TRUE(pool.Contains(file_, p));
  EXPECT_EQ(disk_.stats().io_requests, 1u);
  EXPECT_EQ(disk_.stats().pages_read, 8u);
}

TEST_F(BufferPoolTest, FetchExtentTrimsResidentEnds) {
  BufferPool pool(&storage_, &disk_, 32);
  pool.Fetch(file_, 4);
  pool.Fetch(file_, 11);
  const IoStats before = disk_.stats();
  pool.FetchExtent(file_, 4, 8);  // 4 and 11 resident: transfer 5..10.
  const IoStats d = disk_.stats() - before;
  EXPECT_EQ(d.pages_read, 6u);
  EXPECT_EQ(d.io_requests, 1u);
}

TEST_F(BufferPoolTest, FetchExtentFullyResidentIsFree) {
  BufferPool pool(&storage_, &disk_, 32);
  pool.FetchExtent(file_, 0, 4);
  const IoStats before = disk_.stats();
  pool.FetchExtent(file_, 0, 4);
  const IoStats d = disk_.stats() - before;
  EXPECT_EQ(d.io_requests, 0u);
  EXPECT_EQ(d.pages_read, 0u);
}

TEST_F(BufferPoolTest, CapacityBoundRespected) {
  BufferPool pool(&storage_, &disk_, 8);
  for (PageId p = 0; p < 64; ++p) pool.Fetch(file_, p);
  EXPECT_LE(pool.size(), 8u);
}

// ---------- Mirror (multi-query shared-pool residency) ----------

TEST_F(BufferPoolTest, MirrorPinsFollowLocalGuards) {
  SimDisk shared_disk;
  BufferPool shared(&storage_, &shared_disk, 32);
  BufferPool local(&storage_, &disk_, 16, /*num_shards=*/1);
  local.SetMirror(&shared);

  const double shared_io = shared_disk.stats().io_time;
  {
    PageGuard fetched = local.Fetch(file_, 3);
    PageGuard pinned = local.Pin(file_, 5);
    // Both pages land pinned in the mirror, charged only to the local disk.
    EXPECT_TRUE(shared.Contains(file_, 3));
    EXPECT_TRUE(shared.Contains(file_, 5));
    EXPECT_EQ(shared.pinned_pages(), 2u);
    EXPECT_EQ(shared.FlushAll(), 2u);  // Pinned: skip + report.
    EXPECT_TRUE(shared.Contains(file_, 3));
  }
  // Guards gone: mirror pins released symmetrically, residency stays.
  EXPECT_EQ(shared.pinned_pages(), 0u);
  EXPECT_TRUE(shared.Contains(file_, 3));
  // The mirror never does accounting of its own.
  EXPECT_DOUBLE_EQ(shared_disk.stats().io_time, shared_io);
  EXPECT_EQ(shared.stats().hits + shared.stats().misses, 0u);
}

TEST_F(BufferPoolTest, MirrorSeesExtentResidency) {
  SimDisk shared_disk;
  BufferPool shared(&storage_, &shared_disk, 32);
  BufferPool local(&storage_, &disk_, 16, /*num_shards=*/1);
  local.SetMirror(&shared);
  local.FetchExtent(file_, 2, 4);
  for (PageId p = 2; p < 6; ++p) EXPECT_TRUE(shared.Contains(file_, p));
  EXPECT_EQ(shared.pinned_pages(), 0u);  // Extents take no pins anywhere.
  EXPECT_EQ(shared_disk.stats().io_requests, 0u);
}

// ---------- StorageManager ----------

// A Result Cache creates its spill file mid-query while the engine's other
// queries read their tables: a file created on one thread must not disturb
// lookups of existing files on another (the thread-sanitizer build checks
// the race; every build checks the ids and contents).
TEST(StorageManagerTest, CreateFileWhileOtherFilesAreRead) {
  StorageManager storage(256);
  const FileId table = storage.CreateFile("table");
  const PageId page = storage.AppendPage(table);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      ASSERT_EQ(storage.NumPages(table), 1u);
      ASSERT_EQ(&storage.GetPage(table, page),
                storage.GetPageForWrite(table, page));
      ASSERT_EQ(storage.FileName(table), "table");
    }
  });
  for (FileId i = 1; i <= 1000; ++i) {
    ASSERT_EQ(storage.CreateFile("spill"), i);
  }
  done.store(true);
  reader.join();
  EXPECT_EQ(storage.NumPages(1000), 0u);
  EXPECT_EQ(storage.FileName(1000), "spill");
}

// ---------- HeapFile ----------

TEST(HeapFileTest, AppendAndReadBack) {
  Engine engine;
  HeapFile heap(&engine, "t", MakeIntSchema(2));
  Result<Tid> tid = heap.Append({Value::Int64(5), Value::Int64(6)});
  ASSERT_TRUE(tid.ok());
  const Tuple t = heap.Read(tid.value());
  EXPECT_EQ(t[0].AsInt64(), 5);
  EXPECT_EQ(t[1].AsInt64(), 6);
}

TEST(HeapFileTest, SpillsAcrossPages) {
  EngineOptions options;
  options.page_size = 512;
  Engine engine(options);
  HeapFile heap(&engine, "t", MakeIntSchema(4));  // 32-byte tuples.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(heap.Append({Value::Int64(i), Value::Int64(0), Value::Int64(0),
                             Value::Int64(0)})
                    .ok());
  }
  EXPECT_GT(heap.num_pages(), 5u);
  EXPECT_EQ(heap.num_tuples(), 100u);
}

TEST(HeapFileTest, ForEachDirectVisitsEverythingInOrder) {
  Engine engine;
  HeapFile heap(&engine, "t", MakeIntSchema(1));
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(heap.Append({Value::Int64(i)}).ok());
  }
  int64_t expected = 0;
  heap.ForEachDirect([&](Tid, const Tuple& t) {
    EXPECT_EQ(t[0].AsInt64(), expected);
    ++expected;
  });
  EXPECT_EQ(expected, 1000);
}

TEST(HeapFileTest, ForEachDirectIsNotAccounted) {
  Engine engine;
  HeapFile heap(&engine, "t", MakeIntSchema(1));
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(heap.Append({Value::Int64(i)}).ok());
  }
  const double io = engine.disk().stats().io_time;
  heap.ForEachDirect([](Tid, const Tuple&) {});
  EXPECT_DOUBLE_EQ(engine.disk().stats().io_time, io);
}

TEST(HeapFileTest, ReadIsAccounted) {
  Engine engine;
  HeapFile heap(&engine, "t", MakeIntSchema(1));
  Result<Tid> tid = heap.Append({Value::Int64(1)});
  ASSERT_TRUE(tid.ok());
  engine.ColdRestart();
  const double io = engine.disk().stats().io_time;
  heap.Read(tid.value());
  EXPECT_GT(engine.disk().stats().io_time, io);
}

TEST(EngineTest, ColdRestartFlushesPool) {
  Engine engine;
  HeapFile heap(&engine, "t", MakeIntSchema(1));
  ASSERT_TRUE(heap.Append({Value::Int64(1)}).ok());
  heap.Read(Tid{0, 0});
  EXPECT_GT(engine.pool().size(), 0u);
  engine.ColdRestart();
  EXPECT_EQ(engine.pool().size(), 0u);
}

}  // namespace
}  // namespace smoothscan
