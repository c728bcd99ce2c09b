// ExecContext: the accounting surface an operator executes against — which
// buffer pool its page accesses go through, which CPU meter its work is
// charged to, which simulated disk classifies its stream. Serial execution
// uses the engine's shared instances; morsel-driven parallel execution hands
// every morsel a private stack (MorselContext) so that simulated time is
// charged per *logical access stream* and stays a pure function of the morsel
// decomposition, independent of worker count and interleaving.

#ifndef SMOOTHSCAN_STORAGE_EXEC_CONTEXT_H_
#define SMOOTHSCAN_STORAGE_EXEC_CONTEXT_H_

#include "storage/engine.h"

namespace smoothscan {

class BatchPool;
class QueryMemoryScope;

/// Borrowed pointers to the components an operator charges its work to.
/// Copyable; the pointees must outlive every operator using the context.
struct ExecContext {
  StorageManager* storage = nullptr;
  BufferPool* pool = nullptr;
  CpuMeter* cpu = nullptr;
  SimDisk* disk = nullptr;
  /// Recycled-batch pool for the operator's output batches (set by the
  /// parallel scan driver for its kernels; null for serial operators, which
  /// reuse the caller's carry batch and need no pool).
  BatchPool* batch_pool = nullptr;
  /// Per-query execution-memory account (quota + broker charging). Null:
  /// ungoverned. Never affects simulated cost — accounting bytes, not time.
  QueryMemoryScope* mem = nullptr;

  bool valid() const { return pool != nullptr; }
};

/// The engine's shared (serial) execution context.
inline ExecContext EngineContext(Engine* engine) {
  return ExecContext{&engine->storage(), &engine->pool(), &engine->cpu(),
                     &engine->disk()};
}

/// The per-morsel accounting stack: a private simulated disk (one logical
/// access stream), a private single-shard buffer pool (morsel-local
/// residency, exact LRU) and a private CPU meter. Page *data* still comes
/// from the engine's StorageManager — pages are immutable at query time — so
/// only accounting state is duplicated. When the parallel operator finishes
/// it merges every context into the engine in morsel order, which keeps the
/// accumulated doubles bit-identical across degrees of parallelism.
class MorselContext {
 public:
  /// `mirror` (optional, typically the engine's shared pool) receives the
  /// morsel's residency and pins — see BufferPool::SetMirror.
  explicit MorselContext(Engine* engine, BufferPool* mirror = nullptr)
      : disk_(engine->options().device, engine->options().page_size),
        pool_(&engine->storage(), &disk_, engine->options().buffer_pool_pages,
              /*num_shards=*/1),
        cpu_(engine->options().cpu_costs) {
    pool_.SetMirror(mirror);
    ctx_.storage = &engine->storage();
    ctx_.pool = &pool_;
    ctx_.cpu = &cpu_;
    ctx_.disk = &disk_;
  }

  MorselContext(const MorselContext&) = delete;
  MorselContext& operator=(const MorselContext&) = delete;

  /// Hands the morsel's kernels a batch pool / memory account (set once by
  /// the parallel scan driver before workers start).
  void SetBatchPool(BatchPool* pool) { ctx_.batch_pool = pool; }
  void SetMemScope(QueryMemoryScope* mem) { ctx_.mem = mem; }

  const ExecContext& ctx() const { return ctx_; }
  SimDisk& disk() { return disk_; }
  BufferPool& pool() { return pool_; }
  CpuMeter& cpu() { return cpu_; }

  /// Folds this stream's accounting into a sink (the disk and CPU meter of
  /// the parallel scan's ExecContext: the engine's shared stream, or a
  /// query's private stack). Call exactly once per context, in morsel order.
  void MergeInto(SimDisk* disk, CpuMeter* cpu) {
    disk->Absorb(disk_.stats());
    cpu->Add(cpu_.time());
  }

 private:
  SimDisk disk_;
  BufferPool pool_;
  CpuMeter cpu_;
  ExecContext ctx_;
};

/// The per-query accounting stack of the multi-query engine: a private
/// simulated disk, a private buffer pool with the *engine's* capacity and
/// shard count (so a single query observes exactly the hit/miss sequence a
/// solo cold run against the engine pool would), and a private CPU meter —
/// all starting cold and zeroed. Because the stack is private, a query's
/// simulated cost is a pure function of the query and the data: bit-identical
/// no matter how many queries run beside it. Page *data* still comes from the
/// shared StorageManager, and when `mirror` is given (the engine's shared
/// pool) every fetch additionally pins its page there, so concurrent queries
/// contend for the one real pool without perturbing each other's accounting.
class QueryContext {
 public:
  explicit QueryContext(Engine* engine, BufferPool* mirror = nullptr)
      : disk_(engine->options().device, engine->options().page_size),
        pool_(&engine->storage(), &disk_, engine->options().buffer_pool_pages),
        cpu_(engine->options().cpu_costs) {
    pool_.SetMirror(mirror);
    ctx_.storage = &engine->storage();
    ctx_.pool = &pool_;
    ctx_.cpu = &cpu_;
    ctx_.disk = &disk_;
  }

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  /// Attaches the query's execution-memory account (see QueryMemoryScope).
  void SetMemScope(QueryMemoryScope* mem) { ctx_.mem = mem; }

  const ExecContext& ctx() const { return ctx_; }
  SimDisk& disk() { return disk_; }
  BufferPool& pool() { return pool_; }
  CpuMeter& cpu() { return cpu_; }

  /// Total simulated time charged to this query so far (I/O + CPU).
  double TotalTime() const { return disk_.stats().io_time + cpu_.time(); }

 private:
  SimDisk disk_;
  BufferPool pool_;
  CpuMeter cpu_;
  ExecContext ctx_;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_STORAGE_EXEC_CONTEXT_H_
