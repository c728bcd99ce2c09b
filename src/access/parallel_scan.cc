#include "access/parallel_scan.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <utility>

#include "access/index_scan.h"
#include "index/bplus_tree.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace smoothscan {

namespace {

void Accumulate(AccessPathStats* into, const AccessPathStats& from) {
  into->tuples_produced += from.tuples_produced;
  into->tuples_inspected += from.tuples_inspected;
  into->heap_pages_probed += from.heap_pages_probed;
}

}  // namespace

uint32_t AlignMorselPages(uint32_t morsel_pages, uint32_t read_ahead) {
  if (morsel_pages <= read_ahead) return read_ahead;
  return morsel_pages - morsel_pages % read_ahead;
}

// ---------------------------------------------------------------------------
// ParallelScan
// ---------------------------------------------------------------------------

ParallelScan::ParallelScan(Engine* engine,
                           std::unique_ptr<ParallelScanKernel> kernel,
                           ParallelScanOptions options)
    : engine_(engine),
      kernel_(std::move(kernel)),
      options_(options),
      pool_(options_.batch_pool) {
  SMOOTHSCAN_CHECK(options_.dop >= 1);
  SMOOTHSCAN_CHECK(options_.morsel_pages >= 1);
}

ParallelScan::~ParallelScan() {
  // Make sure no worker outlives the slots it emits into.
  if (group_ != nullptr) group_->Wait();
}

ExecContext ParallelScan::DefaultContext() const {
  return EngineContext(engine_);
}

TaskScheduler* ParallelScan::scheduler() {
  if (options_.scheduler != nullptr) return options_.scheduler;
  if (owned_scheduler_ == nullptr) {
    owned_scheduler_ = std::make_unique<TaskScheduler>(options_.dop);
  }
  return owned_scheduler_.get();
}

void ParallelScan::EmitTo(size_t slot, PooledBatch&& batch) {
  // Empty batches go straight back to the pool (the handle's destructor).
  if (!batch || batch->empty()) return;
  source_->RecordBatchFill(batch->size(), batch->capacity());
  {
    latch::LatchGuard lock(mu_);
    slots_[slot].batches.push_back(std::move(batch));
  }
  cv_.notify_one();
}

Status ParallelScan::OpenImpl() {
  Finalize();  // A re-Open mid-stream settles the previous cycle first.
  // Finalize() repopulates stats_ with the settled cycle's totals; this cycle
  // starts from zero, as the stats() contract requires.
  stats_ = AccessPathStats();
  {
    // No workers are live here (Finalize waited on the group), but the slot
    // state is latch-guarded, so reset it under the latch like everyone else.
    latch::LatchGuard lock(mu_);
    slots_.clear();
    emit_slot_ = 0;
  }
  contexts_.clear();
  morsel_stats_.clear();
  prolog_stats_ = AccessPathStats();
  group_.reset();
  pending_.Release();
  pending_pos_ = 0;
  finalized_ = false;

  // Observability bind before Plan, mirroring the serial operators'
  // resolve-at-Open (the engine SetObs()s the path before Open).
  kernel_->BindObs(obs());
  if (pool_ == nullptr) {
    // Owned pool lives as long as the operator, not one Open cycle, so a
    // re-Open starts with every batch of the previous cycle warm.
    BatchPoolOptions pool_options;
    pool_options.recycle = options_.recycle_batches;
    if (obs() != nullptr && obs()->metrics != nullptr) {
      obs::MetricsRegistry* m = obs()->metrics;
      pool_options.metrics = {
          m->counter("batchpool.acquires"), m->counter("batchpool.reuses"),
          m->counter("batchpool.releases"), m->counter("batchpool.sheds")};
    }
    owned_pool_ = std::make_unique<BatchPool>(pool_options, ctx().mem);
    pool_ = owned_pool_.get();
  }
  settle_ = ctx();
  // Every stream of the cycle mirrors and reports like the context's pool.
  auto make_stream = [this] {
    auto mc = std::make_unique<MorselContext>(engine_, ctx().pool->mirror());
    mc->pool().SetMetricsSink(ctx().pool->metrics_sink());
    mc->SetBatchPool(pool_);
    mc->SetMemScope(ctx().mem);
    return mc;
  };

  // Serial prolog on the planning stream. Workers are not running yet, so the
  // prolog emits into slot 0 without locking concerns.
  planning_ = make_stream();
  std::vector<PooledBatch> prolog;
  std::vector<Morsel> morsels = kernel_->Plan(
      planning_->ctx(),
      [&prolog](PooledBatch&& b) {
        if (b && !b->empty()) prolog.push_back(std::move(b));
      },
      &prolog_stats_);

  {
    latch::LatchGuard lock(mu_);
    slots_.resize(1 + morsels.size());
    for (PooledBatch& b : prolog) slots_[0].batches.push_back(std::move(b));
    slots_[0].done = true;
  }

  morsel_stats_.resize(morsels.size());
  contexts_.reserve(morsels.size());
  for (size_t i = 0; i < morsels.size(); ++i) {
    contexts_.push_back(make_stream());
  }
  source_ = std::make_unique<MorselSource>(std::move(morsels));
  if (source_->size() == 0) return Status::OK();

  // One puller task per worker; each drains the shared morsel source.
  std::vector<TaskScheduler::Task> tasks;
  const uint32_t pullers =
      std::min<uint32_t>(options_.dop, static_cast<uint32_t>(source_->size()));
  tasks.reserve(pullers);
  obs::TraceCollector* const trace = obs() != nullptr ? obs()->trace : nullptr;
  const uint64_t query_id = obs() != nullptr ? obs()->query_id : 0;
  for (uint32_t t = 0; t < pullers; ++t) {
    tasks.push_back([this, trace, query_id] {
      Morsel m;
      while (source_->Next(&m)) {
        MorselContext& mc = *contexts_[m.index];
        // Worker-ring span around the morsel; the index payload lets a
        // Perfetto view line morsels up against the queue they drained from.
        obs::TraceSpan morsel_span(trace, query_id, "morsel", "morsel_index",
                                   static_cast<int64_t>(m.index));
        morsel_stats_[m.index] = kernel_->RunMorsel(
            m, mc.ctx(),
            [this, &m](PooledBatch&& b) { EmitTo(m.index + 1, std::move(b)); });
        {
          latch::LatchGuard lock(mu_);
          slots_[m.index + 1].done = true;
        }
        cv_.notify_all();
      }
    });
  }
  group_ = scheduler()->Submit(std::move(tasks));
  return Status::OK();
}

bool ParallelScan::NextBatchImpl(TupleBatch* out) {
  while (!out->full()) {
    if (pending_) {
      TupleBatch& pb = *pending_;
      if (out->empty() && pending_pos_ == 0 &&
          pb.capacity() == out->capacity()) {
        // Whole-batch hand-off: the exchange swaps the buffers, not the
        // rows, then recycles the caller's old storage through the pool —
        // the recycled-Value-storage contract the old `pending_ =
        // TupleBatch()` reset silently broke.
        std::swap(*out, pb);
        pending_.Release();
        return !out->empty();
      }
      const size_t n = pb.size();
      while (pending_pos_ < n && !out->full()) {
        out->Append(pb.Take(pending_pos_++));
      }
      if (pending_pos_ >= n) {
        pending_.Release();
        pending_pos_ = 0;
      }
      continue;
    }
    // Pull the next batch in morsel order, waiting on the producers.
    latch::UniqueLatch lock(mu_);
    for (;;) {
      if (emit_slot_ >= slots_.size()) {
        lock.unlock();
        Finalize();  // End of stream: settle accounting before reporting it.
        return !out->empty();
      }
      Slot& slot = slots_[emit_slot_];
      if (slot.head < slot.batches.size()) {
        pending_ = std::move(slot.batches[slot.head++]);
        pending_pos_ = 0;
        break;
      }
      if (slot.done) {
        slot.batches.clear();
        slot.head = 0;
        ++emit_slot_;
        continue;
      }
      cv_.wait(lock);
    }
  }
  return !out->empty();
}

void ParallelScan::Finalize() {
  if (finalized_) return;
  finalized_ = true;
  if (group_ != nullptr) group_->Wait();
  // Merge in deterministic order: prolog stream first, then morsel streams by
  // index. This fixes the floating-point accumulation order, so the context's
  // simulated time is bit-identical at any DOP.
  stats_ = AccessPathStats();
  Accumulate(&stats_, prolog_stats_);
  if (planning_ != nullptr) planning_->MergeInto(settle_.disk, settle_.cpu);
  for (size_t i = 0; i < contexts_.size(); ++i) {
    Accumulate(&stats_, morsel_stats_[i]);
    contexts_[i]->MergeInto(settle_.disk, settle_.cpu);
  }
  planning_.reset();
  contexts_.clear();
}

void ParallelScan::CloseImpl() {
  Finalize();
  group_.reset();
  // Undrained batches (a consumer that Closed mid-stream) return to the pool
  // warm with the slots; the pool itself outlives the cycle, so a re-Open
  // starts with recycled storage instead of a cold heap.
  {
    latch::LatchGuard lock(mu_);
    slots_.clear();
    slots_.shrink_to_fit();
    emit_slot_ = 0;
  }
  pending_.Release();
  pending_pos_ = 0;
  source_.reset();
}

AccessPathStats ParallelScanKernel::Drain(AccessPath& scan,
                                          const ExecContext& ctx,
                                          const EmitFn& emit) {
  scan.SetExecContext(&ctx);
  SMOOTHSCAN_CHECK(scan.Open().ok());
  PooledBatch batch = ctx.batch_pool->Acquire();
  while (scan.NextBatch(batch.get())) {
    emit(std::move(batch));
    batch = ctx.batch_pool->Acquire();
  }
  return scan.stats();
}

// ---------------------------------------------------------------------------
// FullScan kernel: page-range morsels, streams seeded at page_begin - 1.
// ---------------------------------------------------------------------------

namespace {

class ParallelFullScanKernel : public ParallelScanKernel {
 public:
  ParallelFullScanKernel(const HeapFile* heap, ScanPredicate predicate,
                         FullScanOptions scan_options, uint32_t morsel_pages)
      : heap_(heap),
        predicate_(std::move(predicate)),
        scan_options_(scan_options),
        morsel_pages_(
            AlignMorselPages(morsel_pages, scan_options.read_ahead_pages)) {}

  const char* name() const override { return "ParallelFullScan"; }

  std::vector<Morsel> Plan(const ExecContext&, const EmitFn&,
                           AccessPathStats*) override {
    return MorselSource::PageRanges(
        static_cast<PageId>(heap_->num_pages()), morsel_pages_);
  }

  AccessPathStats RunMorsel(const Morsel& m, const ExecContext& ctx,
                            const EmitFn& emit) override {
    // Seed the morsel's stream at the page the serial scan would have just
    // read, so the summed parallel charges equal the serial charges exactly.
    if (m.page_begin > 0) {
      ctx.disk->SeedPosition(heap_->file_id(), m.page_begin - 1);
    }
    FullScanOptions options = scan_options_;
    options.page_begin = m.page_begin;
    options.page_end = m.page_end;
    FullScan scan(heap_, predicate_, options);
    const AccessPathStats stats = Drain(scan, ctx, emit);
    scan.Close();
    return stats;
  }

 private:
  const HeapFile* heap_;
  ScanPredicate predicate_;
  FullScanOptions scan_options_;
  uint32_t morsel_pages_;
};

// ---------------------------------------------------------------------------
// IndexScan kernel: key-range morsels from the leaf-level histogram.
// ---------------------------------------------------------------------------

class ParallelIndexScanKernel : public ParallelScanKernel {
 public:
  ParallelIndexScanKernel(const BPlusTree* index, ScanPredicate predicate,
                          uint32_t max_key_morsels)
      : index_(index),
        predicate_(std::move(predicate)),
        max_key_morsels_(max_key_morsels) {}

  const char* name() const override { return "ParallelIndexScan"; }

  std::vector<Morsel> Plan(const ExecContext&, const EmitFn&,
                           AccessPathStats*) override {
    return MorselSource::KeyRanges(index_->PartitionKeyRange(
        predicate_.lo, predicate_.hi, max_key_morsels_));
  }

  AccessPathStats RunMorsel(const Morsel& m, const ExecContext& ctx,
                            const EmitFn& emit) override {
    ScanPredicate predicate = predicate_;
    predicate.lo = m.key_lo;
    predicate.hi = m.key_hi;
    IndexScan scan(index_, std::move(predicate));
    const AccessPathStats stats = Drain(scan, ctx, emit);
    scan.Close();
    return stats;
  }

 private:
  const BPlusTree* index_;
  ScanPredicate predicate_;
  uint32_t max_key_morsels_;
};

// ---------------------------------------------------------------------------
// SortScan kernel: the serial leaf walk + TID sort in the prolog, page-range
// morsels over the sorted-TID array, each running the serial heap phase
// (FetchSortedTids) over its slice.
// ---------------------------------------------------------------------------

class ParallelSortScanKernel : public ParallelScanKernel {
 public:
  ParallelSortScanKernel(const BPlusTree* index, ScanPredicate predicate,
                         uint32_t morsel_pages)
      : index_(index),
        predicate_(std::move(predicate)),
        morsel_pages_(AlignMorselPages(morsel_pages, kSortScanChunkPages)) {}

  const char* name() const override { return "ParallelSortScan"; }

  std::vector<Morsel> Plan(const ExecContext& planning, const EmitFn&,
                           AccessPathStats*) override {
    tids_ = CollectSortedTids(index_, predicate_, planning);
    // One morsel per populated page-range bucket; each morsel's span of the
    // sorted array is fixed here, so workers touch disjoint read-only slices.
    std::vector<Morsel> morsels;
    spans_.clear();
    size_t i = 0;
    while (i < tids_.size()) {
      const PageId bucket = tids_[i].page_id / morsel_pages_;
      size_t j = i;
      while (j < tids_.size() && tids_[j].page_id / morsel_pages_ == bucket) {
        ++j;
      }
      Morsel m;
      m.index = static_cast<uint32_t>(morsels.size());
      m.page_begin = bucket * morsel_pages_;
      m.page_end = m.page_begin + morsel_pages_;
      morsels.push_back(m);
      spans_.emplace_back(i, j);
      i = j;
    }
    return morsels;
  }

  AccessPathStats RunMorsel(const Morsel& m, const ExecContext& ctx,
                            const EmitFn& emit) override {
    AccessPathStats stats;
    PooledBatch batch = ctx.batch_pool->Acquire();
    const auto [begin, end] = spans_[m.index];
    stats.tuples_produced = FetchSortedTids(
        index_->heap(), predicate_, tids_, begin, end, ctx, &stats,
        [&](Tid, Tuple&& tuple) {
          batch->Append(std::move(tuple));
          if (batch->full()) {
            emit(std::move(batch));
            batch = ctx.batch_pool->Acquire();
          }
        });
    emit(std::move(batch));
    return stats;
  }

 private:
  const BPlusTree* index_;
  ScanPredicate predicate_;
  uint32_t morsel_pages_;
  std::vector<Tid> tids_;
  std::vector<std::pair<size_t, size_t>> spans_;
};

// ---------------------------------------------------------------------------
// SwitchScan kernel: the index phase is inherently serial (the switch fires
// on the *global* produced cardinality), so the prolog drives a serial
// SwitchScan with an empty post-switch range; if the switch fires, each
// page-range morsel resumes the post-switch full scan over its range, all
// against the prolog's frozen Tuple ID Cache.
// ---------------------------------------------------------------------------

class ParallelSwitchScanKernel : public ParallelScanKernel {
 public:
  ParallelSwitchScanKernel(const BPlusTree* index, ScanPredicate predicate,
                           SwitchScanOptions scan_options,
                           uint32_t morsel_pages)
      : index_(index),
        predicate_(std::move(predicate)),
        scan_options_(scan_options),
        morsel_pages_(
            AlignMorselPages(morsel_pages, scan_options.read_ahead_pages)) {}

  const char* name() const override { return "ParallelSwitchScan"; }

  std::vector<Morsel> Plan(const ExecContext& planning, const EmitFn& emit,
                           AccessPathStats* stats) override {
    SwitchScan prolog(index_, predicate_, scan_options_, 0, 0, nullptr);
    *stats = Drain(prolog, planning, emit);
    produced_ = prolog.TakeProduced();
    const bool switched = prolog.switched();
    prolog.Close();
    if (!switched) return {};
    return MorselSource::PageRanges(
        static_cast<PageId>(index_->heap()->num_pages()), morsel_pages_);
  }

  AccessPathStats RunMorsel(const Morsel& m, const ExecContext& ctx,
                            const EmitFn& emit) override {
    if (m.page_begin > 0) {
      ctx.disk->SeedPosition(index_->heap()->file_id(), m.page_begin - 1);
    }
    SwitchScan scan(index_, predicate_, scan_options_, m.page_begin,
                    m.page_end, &produced_);
    const AccessPathStats stats = Drain(scan, ctx, emit);
    scan.Close();
    return stats;
  }

 private:
  const BPlusTree* index_;
  ScanPredicate predicate_;
  SwitchScanOptions scan_options_;
  uint32_t morsel_pages_;
  TupleIdCache produced_;  ///< Frozen once Plan() returns.
};

// ---------------------------------------------------------------------------
// SmoothScan kernel: page-range morsels; the prolog buckets the index entries
// by owning morsel, and each morsel runs the serial SmoothScan over its
// bucket, morphing within its page range. Each morsel's Page ID Cache and
// policy counters are its own (pages outside the range are never read), so
// region-growth decisions depend on the morsel partition alone, never on
// scheduling.
//
// A morsel is a cheap unit of restart only if it need not re-learn the
// density: the prolog's bucketing is an observation of every morsel's page
// density, so morsel k > 0 starts its region growth at the region size the
// density of morsel k - 1 makes cheapest (SeedFor), on a stream seeded at
// page_begin - 1 like FullScan's. Morsel 0 runs unseeded — exactly the
// serial operator, which is what a one-morsel kernel must be.
// ---------------------------------------------------------------------------

class ParallelSmoothScanKernel : public ParallelScanKernel {
 public:
  ParallelSmoothScanKernel(const BPlusTree* index, ScanPredicate predicate,
                           SmoothScanOptions scan_options,
                           uint32_t morsel_pages)
      : index_(index),
        predicate_(std::move(predicate)),
        scan_options_(scan_options),
        morsel_pages_(morsel_pages) {}

  const char* name() const override { return "ParallelSmoothScan"; }

  void BindObs(const obs::ObsContext* obs) override { obs_ = obs; }

  SmoothScanStats smooth_stats() const override {
    // Morsel-order merge, like Finalize's accounting merge.
    SmoothScanStats total;
    for (const SmoothScanStats& ss : sstats_) {
      total.card_mode1 += ss.card_mode1;
      total.card_mode2 += ss.card_mode2;
      total.probes += ss.probes;
      total.expansions += ss.expansions;
      total.shrinks += ss.shrinks;
      total.pages_seen += ss.pages_seen;
      total.pages_with_results += ss.pages_with_results;
      total.morph_checked_pages += ss.morph_checked_pages;
      total.morph_result_pages += ss.morph_result_pages;
      total.page_cache_hits += ss.page_cache_hits;
    }
    return total;
  }

  std::vector<Morsel> Plan(const ExecContext& planning, const EmitFn&,
                           AccessPathStats*) override {
    const PageId num_pages =
        static_cast<PageId>(index_->heap()->num_pages());
    std::vector<Morsel> morsels =
        MorselSource::PageRanges(num_pages, morsel_pages_);
    buckets_.assign(morsels.size(), {});
    sstats_.assign(morsels.size(), SmoothScanStats());
    // The full leaf traversal of the qualifying range (charged once, like the
    // serial operator's), bucketed by the heap page each entry targets, and
    // per bucket its distinct target pages and lowest one.
    std::vector<bool> targeted(num_pages, false);
    std::vector<uint32_t> distinct(morsels.size(), 0);
    std::vector<PageId> lowest(morsels.size(), num_pages);
    for (BPlusTree::Iterator it = index_->Seek(predicate_.lo, &planning);
         it.Valid() && it.key() < predicate_.hi; it.Next()) {
      const PageId page = it.tid().page_id;
      const size_t b = page / morsel_pages_;
      buckets_[b].push_back(it.tid());
      if (!targeted[page]) {
        targeted[page] = true;
        ++distinct[b];
        lowest[b] = std::min(lowest[b], page);
      }
    }
    seeds_.assign(morsels.size(), std::nullopt);
    for (size_t k = 1; k < morsels.size(); ++k) {
      if (buckets_[k].empty()) continue;
      const Morsel& prev = morsels[k - 1];
      seeds_[k] = SeedFor(distinct[k - 1], prev.page_end - prev.page_begin,
                          lowest[k]);
    }
    return morsels;
  }

  AccessPathStats RunMorsel(const Morsel& m, const ExecContext& ctx,
                            const EmitFn& emit) override {
    if (m.page_begin > 0) {
      ctx.disk->SeedPosition(index_->heap()->file_id(), m.page_begin - 1);
    }
    SmoothScan scan(index_, predicate_, scan_options_, buckets_[m.index],
                    m.page_begin, m.page_end, seeds_[m.index], CheckoutSpill());
    scan.SetObs(obs_);
    const AccessPathStats stats = Drain(scan, ctx, emit);
    scan.Close();
    sstats_[m.index] = scan.smooth_stats();
    CheckinSpill(scan.TakeSpill());
    return stats;
  }

 private:
  /// The start a morsel anchored at `anchor` takes after a morsel of `pages`
  /// pages with `distinct` target pages (density d): the power-of-two region
  /// R, up to the cap and the morsel, whose aligned windows cost the least
  /// expected I/O at density d on this device — every window holding a
  /// target (probability 1 - (1 - d)^R) costs one seek and R - 1 transfers.
  /// In practice a morsel after a sparse one starts at one page, and one
  /// after a morsel of M pages with more than about (rand + M) / (rand * M)
  /// of them targeted (rand in sequential-page units; 0.1 for an HDD and
  /// 128 pages) reads itself as one extent. Both cost the same at the
  /// crossover, so the choice has no cliff.
  SmoothMorselSeed SeedFor(uint64_t distinct, uint64_t pages,
                           PageId anchor) const {
    const DeviceProfile& device = index_->heap()->engine()->options().device;
    const double miss = 1.0 - static_cast<double>(distinct) /
                                  static_cast<double>(pages);
    const uint32_t limit =
        std::min(scan_options_.max_region_pages, morsel_pages_);
    SmoothMorselSeed seed;
    seed.anchor = anchor;
    seed.density_ppm = static_cast<int64_t>(distinct * 1000000 / pages);
    double best = std::numeric_limits<double>::infinity();
    for (uint64_t r = 1; r <= limit; r *= 2) {
      const double windows = static_cast<double>(morsel_pages_) / r;
      const double cost = windows * (1.0 - std::pow(miss, r)) *
                          (device.rand_cost + (r - 1) * device.seq_cost);
      if (cost < best) {
        best = cost;
        seed.region_pages = static_cast<uint32_t>(r);
      }
    }
    return seed;
  }

  /// A warm spill buffer for the next morsel (a fresh one while fewer than
  /// the running morsels exist), so a morsel's harvest decodes into storage
  /// earlier morsels grew instead of reallocating its high water.
  std::vector<Tuple> CheckoutSpill() EXCLUDES(spill_mu_) {
    latch::LatchGuard lock(spill_mu_);
    if (spill_stack_.empty()) return {};
    std::vector<Tuple> spill = std::move(spill_stack_.back());
    spill_stack_.pop_back();
    return spill;
  }

  void CheckinSpill(std::vector<Tuple> spill) EXCLUDES(spill_mu_) {
    latch::LatchGuard lock(spill_mu_);
    spill_stack_.push_back(std::move(spill));
  }

  const BPlusTree* index_;
  ScanPredicate predicate_;
  SmoothScanOptions scan_options_;
  uint32_t morsel_pages_;
  const obs::ObsContext* obs_ = nullptr;
  std::vector<std::vector<Tid>> buckets_;
  /// Per-morsel start; nullopt for morsel 0 and for empty buckets.
  std::vector<std::optional<SmoothMorselSeed>> seeds_;
  /// Per-morsel operator counters; slot i is written only by morsel i.
  std::vector<SmoothScanStats> sstats_;
  /// Spill buffers of finished morsels. One per morsel running at once (at
  /// most the DOP); they outlive Open cycles and die with the kernel.
  latch::Latch spill_mu_{latch::LatchRank::kSmoothSpill,
                         "ParallelSmoothScanKernel::spill_mu_"};
  std::vector<std::vector<Tuple>> spill_stack_ GUARDED_BY(spill_mu_);
};

}  // namespace

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

std::unique_ptr<ParallelScan> MakeParallelFullScan(
    const HeapFile* heap, ScanPredicate predicate, FullScanOptions scan_options,
    ParallelScanOptions options) {
  return std::make_unique<ParallelScan>(
      heap->engine(),
      std::make_unique<ParallelFullScanKernel>(
          heap, std::move(predicate), scan_options, options.morsel_pages),
      options);
}

std::unique_ptr<ParallelScan> MakeParallelIndexScan(
    const BPlusTree* index, ScanPredicate predicate,
    ParallelScanOptions options) {
  return std::make_unique<ParallelScan>(
      index->heap()->engine(),
      std::make_unique<ParallelIndexScanKernel>(index, std::move(predicate),
                                                options.max_key_morsels),
      options);
}

std::unique_ptr<ParallelScan> MakeParallelSortScan(
    const BPlusTree* index, ScanPredicate predicate,
    SortScanOptions scan_options, ParallelScanOptions options) {
  // Cross-morsel key order would need a merge above the workers; the serial
  // SortScan covers order-preserving plans.
  if (scan_options.preserve_order) return nullptr;
  return std::make_unique<ParallelScan>(
      index->heap()->engine(),
      std::make_unique<ParallelSortScanKernel>(index, std::move(predicate),
                                               options.morsel_pages),
      options);
}

std::unique_ptr<ParallelScan> MakeParallelSwitchScan(
    const BPlusTree* index, ScanPredicate predicate,
    SwitchScanOptions scan_options, ParallelScanOptions options) {
  return std::make_unique<ParallelScan>(
      index->heap()->engine(),
      std::make_unique<ParallelSwitchScanKernel>(
          index, std::move(predicate), scan_options, options.morsel_pages),
      options);
}

std::unique_ptr<ParallelScan> MakeParallelSmoothScan(
    const BPlusTree* index, ScanPredicate predicate,
    SmoothScanOptions scan_options, ParallelScanOptions options) {
  // The pre-trigger Mode 0 phase gates on the *global* produced cardinality,
  // the Result Cache needs cross-morsel key order, and a shared Page ID Cache
  // spans the whole table; the parallel variant covers the paper's default
  // Eager + unordered configuration. Everything else keeps the serial
  // operator (null, per the factory contract).
  if (scan_options.trigger != MorphTrigger::kEager) return nullptr;
  if (scan_options.preserve_order) return nullptr;
  if (scan_options.shared_group != nullptr) return nullptr;
  return std::make_unique<ParallelScan>(
      index->heap()->engine(),
      std::make_unique<ParallelSmoothScanKernel>(
          index, std::move(predicate), scan_options, options.morsel_pages),
      options);
}

}  // namespace smoothscan
