// Unit tests of the memory subsystem (src/mem/): the recycled-TupleBatch
// BatchPool (warm reuse, quota shedding, the ablation mode), the
// MemoryBroker's total and pressure signal, and the per-query
// QueryMemoryScope.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mem/batch_pool.h"
#include "mem/memory_broker.h"

namespace smoothscan {
namespace {

// ------------------------------------------------------------- BatchPool

TEST(BatchPoolTest, RecyclesWarmBatches) {
  BatchPool pool(BatchPoolOptions{});
  {
    PooledBatch b = pool.Acquire();
    ASSERT_TRUE(b);
    EXPECT_EQ(b->capacity(), kDefaultBatchSize);
    b->Append(Tuple{Value::Int64(1)});
  }  // Released by the handle's destructor.
  TupleBatch* first = nullptr;
  {
    PooledBatch b = pool.Acquire();
    first = b.get();
    EXPECT_TRUE(b->empty());  // Released clean.
  }
  {
    PooledBatch b = pool.Acquire();
    EXPECT_EQ(b.get(), first);  // Same header, recycled.
  }
  const BatchPoolStats stats = pool.stats();
  EXPECT_EQ(stats.acquires, 3u);
  EXPECT_EQ(stats.fresh_batches, 1u);
  EXPECT_EQ(stats.reuses, 2u);
  EXPECT_EQ(stats.cold_acquires(), 1u);
  EXPECT_EQ(stats.sheds, 0u);
}

TEST(BatchPoolTest, ValueStorageSurvivesRecycling) {
  BatchPoolOptions options;
  options.batch_capacity = 8;
  BatchPool pool(options);
  {
    PooledBatch b = pool.Acquire();
    for (int i = 0; i < 8; ++i) {
      b->Append(Tuple{Value::Int64(i), Value::Int64(i * 2)});
    }
  }
  PooledBatch b = pool.Acquire();
  // AppendSlot hands back the recycled slot with its Value storage intact —
  // the zero-allocation decode contract.
  Tuple* slot = b->AppendSlot();
  EXPECT_EQ(slot->size(), 2u);
}

TEST(BatchPoolTest, AblationModeShedsEveryRelease) {
  BatchPoolOptions options;
  options.recycle = false;
  BatchPool pool(options);
  { PooledBatch b = pool.Acquire(); }
  { PooledBatch b = pool.Acquire(); }
  const BatchPoolStats stats = pool.stats();
  EXPECT_EQ(stats.reuses, 0u);  // Headers recycle, storage never does.
  EXPECT_EQ(stats.sheds, 2u);
  EXPECT_EQ(stats.cold_acquires(), 2u);
}

TEST(BatchPoolTest, ConcurrentHandlesGetDistinctBatches) {
  BatchPool pool(BatchPoolOptions{});
  PooledBatch a = pool.Acquire();
  PooledBatch b = pool.Acquire();
  EXPECT_NE(a.get(), b.get());
  a.Release();
  b.Release();
  EXPECT_EQ(pool.stats().fresh_batches, 2u);
}

TEST(BatchPoolTest, ChargesAccountAndShedsOverQuota) {
  QueryMemoryScope scope(nullptr, /*quota_bytes=*/1);  // Any charge breaches.
  BatchPool pool(BatchPoolOptions{}, &scope);
  { PooledBatch b = pool.Acquire(); }
  // Release found the scope over quota (first release charged then shed, or
  // shed outright) — either way the pool must not retain storage forever.
  { PooledBatch b = pool.Acquire(); }
  const BatchPoolStats stats = pool.stats();
  EXPECT_GT(stats.sheds, 0u);
  EXPECT_GT(scope.quota_breaches(), 0u);
}

TEST(BatchPoolTest, UnchargesOnDestruction) {
  QueryMemoryScope scope;
  {
    BatchPool pool(BatchPoolOptions{}, &scope);
    { PooledBatch b = pool.Acquire(); }
    EXPECT_GT(scope.bytes(), 0u);  // One warm batch charged.
  }
  EXPECT_EQ(scope.bytes(), 0u);
}

// ---------------------------------------------------------- MemoryBroker

TEST(MemoryBrokerTest, TracksTotalAndConsumerBytes) {
  MemoryBroker broker;
  MemoryBroker::Consumer pool(&broker);
  MemoryBroker::Consumer cache(&broker);
  pool.Charge(1000);
  cache.Charge(500);
  EXPECT_EQ(broker.total_bytes(), 1500u);
  EXPECT_EQ(pool.bytes(), 1000u);
  cache.Uncharge(200);
  EXPECT_EQ(broker.total_bytes(), 1300u);
  EXPECT_EQ(cache.bytes(), 300u);
  EXPECT_EQ(broker.peak_total_bytes(), 1500u);
}

TEST(MemoryBrokerTest, PressureFlagAndEpoch) {
  MemoryBrokerOptions options;
  options.global_budget_bytes = 1000;
  MemoryBroker broker(options);
  MemoryBroker::Consumer c(&broker);
  EXPECT_FALSE(broker.UnderPressure());
  c.Charge(1000);
  EXPECT_FALSE(broker.UnderPressure());  // At budget, not past it.
  EXPECT_EQ(broker.pressure_epoch(), 0u);
  c.Charge(1);
  EXPECT_TRUE(broker.UnderPressure());
  EXPECT_EQ(broker.pressure_epoch(), 1u);
  c.Uncharge(500);
  EXPECT_FALSE(broker.UnderPressure());
  c.Charge(600);  // Crosses again.
  EXPECT_EQ(broker.pressure_epoch(), 2u);
  EXPECT_EQ(broker.peak_total_bytes(), 1101u);
}

TEST(MemoryBrokerTest, PressureHysteresis) {
  constexpr uint64_t kBudget = 1000;
  constexpr uint64_t kLowWater = kBudget - kBudget / 8;  // 875.
  MemoryBrokerOptions options;
  options.global_budget_bytes = kBudget;
  MemoryBroker broker(options);
  MemoryBroker::Consumer c(&broker);
  c.Charge(kBudget + 1);
  EXPECT_TRUE(broker.UnderPressure());
  EXPECT_EQ(broker.pressure_epoch(), 1u);
  // Dipping below budget but above the low water keeps the flag raised —
  // this is the damping that stops spill/restore ping-pong at the boundary.
  c.Uncharge(c.bytes() - (kLowWater + 1));
  EXPECT_TRUE(broker.UnderPressure());
  c.Charge(kBudget - c.bytes());  // At the budget: re-crossing nothing.
  EXPECT_TRUE(broker.UnderPressure());
  EXPECT_EQ(broker.pressure_epoch(), 1u);
  c.Uncharge(c.bytes() - kLowWater);  // At the low water, the episode ends.
  EXPECT_FALSE(broker.UnderPressure());
  c.Charge(kBudget + 1 - c.bytes());  // A fresh episode, new epoch.
  EXPECT_TRUE(broker.UnderPressure());
  EXPECT_EQ(broker.pressure_epoch(), 2u);
}

TEST(MemoryBrokerTest, PressureClearsOnDestruction) {
  MemoryBrokerOptions options;
  options.global_budget_bytes = 1000;
  MemoryBroker broker(options);
  {
    MemoryBroker::Consumer c(&broker);
    c.Charge(1500);
    EXPECT_TRUE(broker.UnderPressure());
  }
  // The consumer's teardown returned every byte: pressure must not stick.
  EXPECT_FALSE(broker.UnderPressure());
}

TEST(MemoryBrokerTest, DestructionReturnsBytes) {
  MemoryBroker broker;
  MemoryBroker::Consumer kept(&broker);
  kept.Charge(1);
  {
    MemoryBroker::Consumer c(&broker);
    c.Charge(4096);
    EXPECT_EQ(broker.total_bytes(), 4097u);
  }
  EXPECT_EQ(broker.total_bytes(), 1u);
}

// ------------------------------------------------------ QueryMemoryScope

TEST(QueryMemoryScopeTest, CountsQuotaBreaches) {
  QueryMemoryScope scope(nullptr, /*quota_bytes=*/100);
  scope.Charge(60);
  EXPECT_FALSE(scope.OverQuota());
  EXPECT_EQ(scope.quota_breaches(), 0u);
  scope.Charge(60);
  EXPECT_TRUE(scope.OverQuota());
  EXPECT_EQ(scope.quota_breaches(), 1u);
  scope.Uncharge(60);
  EXPECT_FALSE(scope.OverQuota());
  EXPECT_EQ(scope.peak_bytes(), 120u);
}

TEST(QueryMemoryScopeTest, BrokerPressurePropagatesToOverQuota) {
  MemoryBrokerOptions options;
  options.global_budget_bytes = 100;
  MemoryBroker broker(options);
  MemoryBroker::Consumer other(&broker);
  QueryMemoryScope scope(&broker, /*quota_bytes=*/UINT64_MAX);
  scope.Charge(10);
  EXPECT_FALSE(scope.OverQuota());
  other.Charge(200);  // Someone else exhausts the global budget.
  EXPECT_TRUE(scope.OverQuota());  // The scope sheds on the hog's behalf.
  other.Uncharge(200);
  EXPECT_FALSE(scope.OverQuota());
  // The scope's own charge flowed into the broker's total.
  EXPECT_EQ(broker.total_bytes(), 10u);
  scope.Uncharge(10);
}

}  // namespace
}  // namespace smoothscan
