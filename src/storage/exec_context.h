// ExecContext: the accounting surface an operator executes against — which
// buffer pool its page accesses go through, which CPU meter its work is
// charged to, which simulated disk classifies its stream. Serial execution
// uses the engine's shared instances; morsel-driven parallel execution hands
// every morsel a private stack (PrivateContext) so that simulated time is
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

/// A private accounting stack: its own simulated disk (one logical access
/// stream), its own buffer pool with the engine pool's capacity, and its own
/// CPU meter, all starting cold and zeroed. Page *data* still comes from the
/// engine's StorageManager — only accounting state is duplicated — so a
/// stream's simulated cost is a pure function of the work charged to it.
///
/// Two users, differing only in shard count, which decides LRU order and so
/// the simulated cost:
///   * each query of the multi-query engine gets one with the engine's
///     default shard count, so a single query observes exactly the hit/miss
///     sequence a solo cold run against the engine pool would — bit-identical
///     no matter how many queries run beside it;
///   * each morsel of a parallel scan gets one with a single shard (exact
///     LRU), and the scan merges the streams into its context in morsel
///     order, which keeps the accumulated doubles bit-identical across
///     degrees of parallelism.
/// When `mirror` is given (the engine's shared pool) every fetch additionally
/// pins its page there — see BufferPool::SetMirror — so concurrent streams
/// contend for the one real pool without perturbing each other's accounting.
class PrivateContext {
 public:
  explicit PrivateContext(Engine* engine, BufferPool* mirror = nullptr,
                          uint32_t num_shards = BufferPool::kDefaultShards)
      : disk_(engine->options().device, engine->options().page_size),
        pool_(&engine->storage(), &disk_, engine->options().buffer_pool_pages,
              num_shards) {
    pool_.SetMirror(mirror);
    ctx_.storage = &engine->storage();
    ctx_.pool = &pool_;
    ctx_.cpu = &cpu_;
    ctx_.disk = &disk_;
  }

  PrivateContext(const PrivateContext&) = delete;
  PrivateContext& operator=(const PrivateContext&) = delete;

  /// The batch pool (parallel scan morsels) and execution-memory account
  /// (see QueryMemoryScope) operators on this stack draw from.
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

}  // namespace smoothscan

#endif  // SMOOTHSCAN_STORAGE_EXEC_CONTEXT_H_
