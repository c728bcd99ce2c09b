#include "engine/query_engine.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/obs_context.h"
#include "obs/trace.h"
#include "sharing/scan_sharing.h"
#include "storage/buffer_pool.h"

namespace smoothscan {

namespace {

/// Aging bound of the share-aware batch pop: after this many bypasses the
/// front query is admitted next no matter what is sharable behind it.
constexpr uint32_t kMaxShareBypasses = 16;

/// CPU constants handed to the chooser whenever a compressed extent is on
/// offer: the compressed path trades key-check CPU for page I/O, so pricing
/// it against the heap paths on I/O alone would systematically flatter it.
/// Queries with no compressed candidate keep the paper's I/O-only ranking.
constexpr CalibratedCpuModel kChooserCpuModel{};

double MsBetween(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

const char* QueryLaneToString(QueryLane lane) {
  switch (lane) {
    case QueryLane::kBatch:
      return "batch";
    case QueryLane::kSla:
      return "sla";
  }
  return "?";
}

QueryEngine::QueryEngine(Engine* engine, QueryEngineOptions options)
    : engine_(engine), options_(options), pool_consumer_(options.broker) {
  SMOOTHSCAN_CHECK(options_.max_admitted >= 1);
  SMOOTHSCAN_CHECK(options_.sla_reserved_slots < options_.max_admitted);
  if (options_.broker != nullptr) {
    // The shared pool's frame memory is a fixed, engine-lifetime footprint:
    // charge it once so every other consumer competes for what remains.
    pool_consumer_.Charge(
        static_cast<uint64_t>(engine_->options().buffer_pool_pages) *
        engine_->options().page_size);
  }
  if (options_.versions != nullptr &&
      (options_.sharing != nullptr || options_.compressed != nullptr)) {
    // Snapshot publish stales any parked shared scan of the table (its chunk
    // decomposition was sized to the old page count) and any compressed
    // sibling built from the pre-publish snapshot. Order matters: the
    // sibling's own shared-scan group must retire (dropping its window pins)
    // *before* OnPublish evicts and rebuilds the sibling file. Captures the
    // collaborators, not `this` — they must outlive the registry's last
    // publish.
    ScanSharingCoordinator* sharing = options_.sharing;
    CompressedExtentMap* compressed = options_.compressed;
    publish_hook_token_ =
        options_.versions->AddPublishHook([sharing, compressed](FileId file) {
          if (sharing != nullptr) sharing->InvalidateFile(file);
          if (compressed != nullptr) {
            if (sharing != nullptr) {
              if (CompressedExtentRef extent = compressed->Lookup(file)) {
                sharing->InvalidateFile(extent->file);
              }
            }
            compressed->OnPublish(file);
          }
        });
  }
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* r = options_.metrics;
    c_submitted_ = r->counter("engine.submitted");
    c_completed_ = r->counter("engine.completed");
    c_cancelled_ = r->counter("engine.cancelled");
    c_compressed_fallbacks_ = r->counter("engine.compressed_fallbacks");
    g_lane_depth_[static_cast<int>(QueryLane::kBatch)] =
        r->gauge("engine.lane_batch_depth");
    g_lane_depth_[static_cast<int>(QueryLane::kSla)] =
        r->gauge("engine.lane_sla_depth");
    g_running_ = r->gauge("engine.running");
    h_queue_wait_us_ = r->histogram("engine.queue_wait_us");
    h_exec_us_ = r->histogram("engine.exec_us");
    h_latency_us_ = r->histogram("engine.latency_us");
    // Fed by the parallel leaves' batch pools, which resolve them at their
    // first Open; registered here so a snapshot lists them from the start.
    for (const char* name : {"batchpool.acquires", "batchpool.reuses",
                             "batchpool.releases", "batchpool.sheds"}) {
      r->counter(name);
    }
    // Buffer-pool counters: per-query and per-morsel pools (the accounting
    // pools) get this sink at construction; the shared pool gets it here —
    // before the executors spawn, so no fetch can race the attach — for the
    // communal write-back traffic that bypasses query streams.
    bp_sink_.hits = r->counter("bufferpool.hits");
    bp_sink_.misses = r->counter("bufferpool.misses");
    bp_sink_.write_backs = r->counter("bufferpool.write_backs");
    engine_->pool().SetMetricsSink(bp_sink_);
  }
  if (options_.versions != nullptr && options_.tracing != nullptr) {
    // Publish-at-quiescence instants land on whichever thread drops the last
    // lease. Same set-before-first-lease contract as the sink above.
    options_.versions->SetTrace(options_.tracing);
  }
  executors_.reserve(options_.max_admitted);
  for (uint32_t i = 0; i < options_.max_admitted; ++i) {
    const bool sla_only = i < options_.sla_reserved_slots;
    executors_.emplace_back([this, sla_only] { ExecutorLoop(sla_only); });
  }
}

QueryEngine::~QueryEngine() {
  {
    latch::LatchGuard lock(mu_);
    shutdown_ = true;
  }
  cv_submit_.notify_all();
  for (std::thread& t : executors_) t.join();
  if (options_.metrics != nullptr) {
    // Executors are joined: nothing fetches through the shared pool on this
    // engine's behalf anymore, so the sink detaches under the same
    // quiescence its attach relied on. The registry may outlive this engine.
    engine_->pool().SetMetricsSink(BufferPoolMetricsSink{});
  }
  if (options_.versions != nullptr && options_.tracing != nullptr) {
    // Like the publish hook below: a registry outliving this engine must not
    // emit into a possibly-freed collector at its next publish.
    options_.versions->SetTrace(nullptr);
  }
  if (publish_hook_token_ != 0) {
    // The hook captured the coordinator and extent map; a registry outliving
    // this engine must not call into possibly-freed collaborators on its
    // next publish.
    options_.versions->RemovePublishHook(publish_hook_token_);
  }
}

QueryEngine::QueryId QueryEngine::SubmitSpec(QuerySpec spec) {
  SMOOTHSCAN_CHECK(spec.index != nullptr || spec.writer != nullptr);
  // Write queries need the snapshot machinery: without leases, a publish
  // could land under an in-flight scan.
  SMOOTHSCAN_CHECK(spec.writer == nullptr || options_.versions != nullptr);
  SMOOTHSCAN_CHECK(!spec.use_chooser ||
                   (spec.stats != nullptr && spec.cost_model != nullptr));
  Pending p;
  p.spec = std::move(spec);
  p.share_eligible = ShareEligible(p.spec);  // Once, outside the lock.
  p.submitted = std::chrono::steady_clock::now();
  const QueryLane lane = p.spec.lane;
  const bool share_eligible = p.share_eligible;
  QueryId id;
  {
    latch::LatchGuard lock(mu_);
    id = next_id_++;
    p.id = id;
    records_[id];  // Reserve the completion slot.
    ++outstanding_;
    std::deque<Pending>& q = lanes_[static_cast<int>(lane)];
    q.push_back(std::move(p));
    if (g_lane_depth_[static_cast<int>(lane)] != nullptr) {
      g_lane_depth_[static_cast<int>(lane)]->Set(
          static_cast<int64_t>(q.size()));
    }
  }
  // notify_all: with an SLA reserve, notify_one could wake a reserved
  // executor for a batch query it will never pop (a lost wakeup).
  cv_submit_.notify_all();
  if (c_submitted_ != nullptr) c_submitted_->Add();
  if (options_.tracing != nullptr) {
    options_.tracing->Instant(id, "submit", "share_eligible",
                              share_eligible ? 1 : 0, nullptr, 0, nullptr, 0,
                              "lane", QueryLaneToString(lane));
  }
  return id;
}

QueryResult QueryEngine::WaitSpec(QueryId id) {
  latch::UniqueLatch lock(mu_);
  auto it = records_.find(id);
  SMOOTHSCAN_CHECK(it != records_.end());
  // The reference survives rehashing from concurrent Submits (iterators
  // would not).
  Record& rec = it->second;
  while (!rec.done) cv_done_.wait(lock);
  QueryResult result = std::move(rec.result);
  records_.erase(id);
  return result;
}

void QueryEngine::DrainAll() {
  latch::UniqueLatch lock(mu_);
  while (outstanding_ != 0) cv_done_.wait(lock);
}

bool QueryEngine::Cancel(QueryId id) {
  ResultStream* stream = nullptr;
  std::function<void(uint64_t)> on_complete;
  {
    latch::UniqueLatch lock(mu_);
    // Running: raise the executor's flag; it finishes the record itself.
    auto rit = running_cancel_.find(id);
    if (rit != running_cancel_.end()) {
      rit->second->store(true, std::memory_order_release);
      return true;
    }
    // Queued: remove unadmitted and complete the record here.
    bool found = false;
    for (int lane = 0; lane < 2 && !found; ++lane) {
      std::deque<Pending>& q = lanes_[lane];
      for (auto it = q.begin(); it != q.end(); ++it) {
        if (it->id != id) continue;
        auto rec_it = records_.find(id);
        SMOOTHSCAN_CHECK(rec_it != records_.end());
        Record& rec = rec_it->second;
        rec.result.status = Status::Cancelled("cancelled in queue");
        QueryMetrics& m = rec.result.metrics;
        m.cancelled = true;
        m.lane = it->spec.lane;
        m.write = it->spec.writer != nullptr;
        m.kind = it->spec.kind;
        m.queue_wait_ms =
            MsBetween(it->submitted, std::chrono::steady_clock::now());
        m.latency_ms = m.queue_wait_ms;
        stream = it->spec.stream;
        on_complete = std::move(it->spec.on_complete);
        // Finish the stream before the record is done: once WaitSpec can
        // return, the handle may destroy the stream.
        if (stream != nullptr) stream->FinishProducer();
        rec.done = true;
        q.erase(it);
        if (g_lane_depth_[lane] != nullptr) {
          g_lane_depth_[lane]->Set(static_cast<int64_t>(q.size()));
        }
        --outstanding_;
        ++completed_;
        found = true;
        break;
      }
    }
    if (!found) return false;  // Already completed (or unknown id).
  }
  cv_done_.notify_all();
  if (c_cancelled_ != nullptr) c_cancelled_->Add();
  if (options_.tracing != nullptr) {
    options_.tracing->Instant(id, "cancel", "in_queue", 1);
  }
  // Outside mu_: the window callback climbs to the Session latch (rank 740).
  if (on_complete) on_complete(id);
  return true;
}

size_t QueryEngine::queue_depth() const {
  latch::LatchGuard lock(mu_);
  return lanes_[0].size() + lanes_[1].size();
}

uint32_t QueryEngine::admitted() const {
  latch::LatchGuard lock(mu_);
  return admitted_now_;
}

uint32_t QueryEngine::peak_admitted() const {
  latch::LatchGuard lock(mu_);
  return peak_admitted_;
}

uint64_t QueryEngine::completed() const {
  latch::LatchGuard lock(mu_);
  return completed_;
}

void QueryEngine::ExecutorLoop(bool sla_only) {
  for (;;) {
    Pending p;
    std::atomic<bool> cancel{false};
    std::chrono::steady_clock::time_point admit_time;
    {
      latch::UniqueLatch lock(mu_);
      // Explicit loop: the guarded lane/shutdown state is not visible to the
      // analysis inside a predicate lambda. A reserved executor ignores the
      // batch lane entirely — that is the reserve.
      while (!shutdown_ && lanes_[static_cast<int>(QueryLane::kSla)].empty() &&
             (sla_only || lanes_[0].empty())) {
        cv_submit_.wait(lock);
      }
      // Drain remaining queries before honoring shutdown, like the task
      // scheduler does for its deques (reserved executors leave the batch
      // lane to the general pool).
      if (lanes_[static_cast<int>(QueryLane::kSla)].empty() &&
          (sla_only || lanes_[0].empty())) {
        return;
      }
      std::deque<Pending>& lane =
          !lanes_[static_cast<int>(QueryLane::kSla)].empty()
              ? lanes_[static_cast<int>(QueryLane::kSla)]
              : lanes_[static_cast<int>(QueryLane::kBatch)];
      auto it = lane.begin();
      if (options_.sharing != nullptr &&
          &lane == &lanes_[static_cast<int>(QueryLane::kBatch)] &&
          it->bypassed < kMaxShareBypasses) {
        // Share-aware pop: a queued query that can attach to a shared scan
        // already in flight over its table jumps the batch FIFO — grouping
        // same-table arrivals onto one lap instead of serializing passes.
        // The front query's bypass budget bounds the reordering: once spent,
        // plain FIFO resumes and it is admitted next.
        for (auto cand = lane.begin(); cand != lane.end(); ++cand) {
          if (cand->share_eligible &&
              running_shared_.count(cand->spec.index->heap()->file_id()) >
                  0) {
            it = cand;
            break;
          }
        }
        if (it != lane.begin()) ++lane.front().bypassed;
      }
      p = std::move(*it);
      lane.erase(it);
      // Same critical section as the pop: Cancel always finds a live query
      // either queued or here — never in between.
      running_cancel_[p.id] = &cancel;
      ++admitted_now_;
      peak_admitted_ = std::max(peak_admitted_, admitted_now_);
      for (int i = 0; i < 2; ++i) {
        if (g_lane_depth_[i] != nullptr) {
          g_lane_depth_[i]->Set(static_cast<int64_t>(lanes_[i].size()));
        }
      }
      if (g_running_ != nullptr) {
        g_running_->Set(static_cast<int64_t>(admitted_now_));
      }
      admit_time = std::chrono::steady_clock::now();
    }

    // Taken before the spec moves into Execute: both outlive it (the stream
    // is the handle's; the callback is fired below, after the record).
    ResultStream* stream = p.spec.stream;
    std::function<void(uint64_t)> on_complete = std::move(p.spec.on_complete);
    QueryResult result;
    {
      // The "query" span covers admission → completion on this executor;
      // queue wait rides along as an arg so the span tree alone tells the
      // whole submit → done story.
      obs::TraceSpan query_span(
          options_.tracing, p.id, "query", "lane",
          static_cast<int64_t>(p.spec.lane), "queue_us",
          static_cast<int64_t>(MsBetween(p.submitted, admit_time) * 1000.0));
      result = Execute(p.id, std::move(p.spec), &cancel);
    }
    // Before the record is done: once WaitSpec can return, the handle may
    // destroy the stream.
    if (stream != nullptr) stream->FinishProducer();
    const auto end = std::chrono::steady_clock::now();
    result.metrics.queue_wait_ms = MsBetween(p.submitted, admit_time);
    result.metrics.exec_ms = MsBetween(admit_time, end);
    result.metrics.latency_ms = MsBetween(p.submitted, end);
    if (h_latency_us_ != nullptr) {
      h_queue_wait_us_->Record(
          static_cast<uint64_t>(result.metrics.queue_wait_ms * 1000.0));
      h_exec_us_->Record(
          static_cast<uint64_t>(result.metrics.exec_ms * 1000.0));
      h_latency_us_->Record(
          static_cast<uint64_t>(result.metrics.latency_ms * 1000.0));
    }
    if (c_completed_ != nullptr) c_completed_->Add();
    if (result.metrics.cancelled && c_cancelled_ != nullptr) {
      c_cancelled_->Add();
    }

    {
      latch::LatchGuard lock(mu_);
      running_cancel_.erase(p.id);
      --admitted_now_;
      ++completed_;
      --outstanding_;
      if (g_running_ != nullptr) {
        g_running_->Set(static_cast<int64_t>(admitted_now_));
      }
      Record& rec = records_[p.id];
      rec.result = std::move(result);
      rec.done = true;
    }
    cv_done_.notify_all();
    // Outside mu_: the Session window callback climbs to rank 740.
    if (on_complete) on_complete(p.id);
  }
}

CompressedExtentRef QueryEngine::CompressedExtentFor(
    const QuerySpec& spec) const {
  if (options_.compressed == nullptr || spec.index == nullptr ||
      spec.need_order) {
    return nullptr;
  }
  CompressedExtentRef extent =
      options_.compressed->Lookup(spec.index->heap()->file_id());
  // The extent serves range predicates on its key column only.
  if (extent == nullptr || extent->key_column != spec.predicate.column) {
    return nullptr;
  }
  return extent;
}

bool QueryEngine::ShareEligible(const QuerySpec& spec) const {
  if (spec.writer != nullptr || options_.sharing == nullptr ||
      !spec.allow_sharing || spec.need_order) {
    return false;
  }
  // Chooser queries ask the chooser itself (same inputs as Execute will use,
  // so the verdict matches) — a selective query headed for an index path
  // must not jump the batch FIFO for a lap it will never join.
  const CompressedExtentRef extent = CompressedExtentFor(spec);
  const PathKind kind =
      PlanKind(spec, /*sharing_available=*/true, extent, nullptr);
  // A serial compressed plan attaches to the sibling file's cooperative
  // scan, so it groups onto a running lap exactly like kSharedScan.
  return kind == PathKind::kSharedScan ||
         (kind == PathKind::kCompressedScan && spec.dop == 0 &&
          extent != nullptr);
}

PathKind QueryEngine::PlanKind(const QuerySpec& spec, bool sharing_available,
                               const CompressedExtentRef& extent,
                               uint64_t* estimate) const {
  if (!spec.use_chooser) return spec.kind;
  ChooserOptions copts;
  copts.need_order = spec.need_order;
  copts.dop = std::max<uint32_t>(1, spec.dop);
  copts.sharing_available = sharing_available;
  CompressedPathInfo cinfo;
  if (extent != nullptr) {
    cinfo.pages = extent->num_pages();
    cinfo.tuples = extent->num_tuples;
    cinfo.avg_run_length = extent->avg_run_length();
    copts.compressed = &cinfo;
    copts.cpu = &kChooserCpuModel;
  }
  const PlanChoice choice =
      AccessPathChooser::Choose(*spec.stats, *spec.cost_model,
                                spec.predicate.lo, spec.predicate.hi, copts);
  if (estimate != nullptr) *estimate = choice.estimated_cardinality;
  return choice.kind;
}

QueryResult QueryEngine::ExecuteWrite(QueryId id, QuerySpec spec,
                                      const std::atomic<bool>* cancel) {
  QueryResult res;
  QueryMetrics& m = res.metrics;
  m.lane = spec.lane;
  m.write = true;
  if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
    // Raised between admission and the first op: nothing was applied, so
    // this is still a clean cancel. Mid-Apply the batch runs to completion —
    // its mutations are real and will publish.
    res.status = Status::Cancelled("write cancelled before apply");
    m.cancelled = true;
    return res;
  }

  // Per-query accounting stack, exactly like a read: the fetches that pull
  // target pages into the buffer are this query's cost, bit-identical at any
  // admission level. Write-back I/O is communal (charged on the engine
  // stream at flush; see write/table_writer.h).
  PrivateContext qctx(engine_, &engine_->pool());
  qctx.pool().SetMetricsSink(bp_sink_);
  uint64_t applied = 0;
  {
    // Covers the ticket wait inside Apply too — publish waits show up as
    // span length, never as simulated cost.
    obs::TraceSpan apply_span(options_.tracing, id, "write_apply", "ops",
                              static_cast<int64_t>(spec.write_ops.size()));
    res.status = spec.writer->Apply(spec.write_ops, qctx.ctx(), &applied);
  }
  // Metrics are captured even on a mid-batch failure: the ops before the
  // error were applied (and will publish), so their cost is real.
  m.tuples = applied;
  const IoStats io = qctx.disk().stats();
  m.io_time = io.io_time;
  m.cpu_time = qctx.cpu().time();
  m.sim_time = m.io_time + m.cpu_time;
  m.io_requests = io.io_requests;
  m.random_ios = io.random_ios;
  m.seq_ios = io.seq_ios;
  m.pages_read = io.pages_read;
  return res;
}

QueryResult QueryEngine::Execute(QueryId id, QuerySpec spec,
                                 const std::atomic<bool>* cancel) {
  if (spec.writer != nullptr) {
    return ExecuteWrite(id, std::move(spec), cancel);
  }
  QueryResult res;
  QueryMetrics& m = res.metrics;
  m.lane = spec.lane;

  // Per-query observability context, threaded to the access path via
  // SetObs. Emission is atomics + wall clock only — the accounting stack
  // built below never sees it, which is what keeps simulated cost
  // bit-identical with observability on or off.
  obs::ObsContext octx;
  octx.metrics = options_.metrics;
  octx.trace = options_.tracing;
  octx.query_id = id;
  const obs::ObsContext* obs_ctx =
      (octx.metrics != nullptr || octx.trace != nullptr) ? &octx : nullptr;

  // Snapshot pin: for the scan's lifetime the table's base pages are frozen
  // (writers go copy-on-write; publish waits for the last lease), so the
  // result multiset and the simulated cost are those of a solo run against
  // this snapshot.
  TableVersionRegistry::ReadLease lease;
  if (options_.versions != nullptr) {
    // AcquireRead publishes a pending era inline at quiescence, so this span
    // is where a reader's publish wait becomes visible.
    obs::TraceSpan lease_span(
        options_.tracing, id, "lease", "file",
        static_cast<int64_t>(spec.index->heap()->file_id()));
    lease = options_.versions->AcquireRead(spec.index->heap()->file_id());
  }

  // Plan: reuse the cost-based chooser per stream query. With corrupted stats
  // the choice (and the estimate handed to the path) is faithfully wrong —
  // the paper's mis-estimation scenario, replayed at stream scale.
  const bool sharing_on = options_.sharing != nullptr && spec.allow_sharing;
  // Looked up after the lease: the snapshot this query reads is the one the
  // extent (if current) was folded from, so compressed and heap answers
  // agree. A publish between planning and here is impossible — publishes
  // need quiescence and we hold a lease.
  const CompressedExtentRef extent = CompressedExtentFor(spec);
  uint64_t estimate = spec.estimate;
  const PathKind kind = PlanKind(spec, sharing_on, extent, &estimate);

  // Per-query accounting stack; page pins mirror into the shared pool. The
  // private pool is where this query's hits and misses are counted, so it —
  // not the mirror — feeds the registry's bufferpool.* counters.
  PrivateContext qctx(engine_, &engine_->pool());
  qctx.pool().SetMetricsSink(bp_sink_);
  // Per-query execution-memory account: batch pools charge it; a quota
  // breach or global broker pressure sheds their recycled storage. Pure
  // governance — the accounting stack above is untouched.
  QueryMemoryScope mem_scope(options_.broker, options_.query_quota_bytes);
  qctx.SetMemScope(&mem_scope);

  PathRequest request;
  request.kind = kind;
  request.index = spec.index;
  request.predicate = spec.predicate;
  request.need_order = spec.need_order;
  request.estimate = estimate;
  request.dop = spec.dop;
  request.scheduler = options_.scheduler;
  request.sharing = sharing_on ? options_.sharing : nullptr;
  request.extent = extent;
  request.broker = options_.broker;
  BuiltPath built = MakePath(request);
  AccessPath* const path = built.path.get();
  path->SetExecContext(&qctx.ctx());
  path->SetObs(obs_ctx);
  m.kind = built.kind;
  m.parallel = built.parallel;
  if (kind == PathKind::kCompressedScan &&
      built.kind != PathKind::kCompressedScan) {
    // Graceful staleness: the extent a fixed-kind spec (or an earlier plan)
    // counted on is gone — invalidated by a publish, never built, or not
    // keyed on this predicate's column.
    if (c_compressed_fallbacks_ != nullptr) c_compressed_fallbacks_->Add();
    obs::EmitInstant(obs_ctx, "compressed_fallback", "file",
                     static_cast<int64_t>(spec.index->heap()->file_id()));
  }
  const FileId table = spec.index->heap()->file_id();
  if (built.shared) {
    // Visible to the share-aware batch pop while this scan is in flight.
    // Registered under the *table* id (a shared compressed scan too), so
    // same-table arrivals group onto the lap.
    latch::LatchGuard lock(mu_);
    ++running_shared_[table];
  }

  {
    // One span per scan regardless of which branch built the path; morph
    // instants and per-morsel worker spans nest (logically) inside it.
    obs::TraceSpan scan_span(options_.tracing, id, "scan", "kind",
                             static_cast<int64_t>(built.kind), "dop",
                             static_cast<int64_t>(spec.dop));
    res.status = path->Open();
    if (res.status.ok()) {
      TupleBatch batch;
      while (path->NextBatch(&batch)) {
        m.tuples += batch.size();
        if (spec.collect_keys) {
          for (size_t i = 0; i < batch.size(); ++i) {
            res.keys.push_back(batch.row(i)[0].AsInt64());
          }
        }
        // The stream hands back a recycled batch, so the next fill reuses
        // warm row storage (and a parallel leaf's swap returns that warm
        // storage to its BatchPool).
        if (spec.stream != nullptr) spec.stream->Push(&batch);
        // Polled between batches: path->Close() below is the teardown — for
        // a shared-scan consumer that is Detach mid-lap, the existing
        // cancelled-consumer path, and the peers' laps proceed untouched.
        if (cancel != nullptr &&
            cancel->load(std::memory_order_acquire)) {
          res.status = Status::Cancelled("cancelled mid-execution");
          m.cancelled = true;
          obs::EmitInstant(obs_ctx, "cancel", "mid_execution", 1);
          break;
        }
      }
      path->Close();
    }
  }
  if (built.shared) {
    latch::LatchGuard lock(mu_);
    auto it = running_shared_.find(table);
    if (--it->second == 0) running_shared_.erase(it);
  }

  // Charges are reported even for a cancelled (or failed) query: the work
  // done up to the break point was real.
  const IoStats io = qctx.disk().stats();
  m.io_time = io.io_time;
  m.cpu_time = qctx.cpu().time();
  m.sim_time = m.io_time + m.cpu_time;
  m.io_requests = io.io_requests;
  m.random_ios = io.random_ios;
  m.seq_ios = io.seq_ios;
  m.pages_read = io.pages_read;
  m.mem_peak_bytes = mem_scope.peak_bytes();
  m.mem_quota_breaches = mem_scope.quota_breaches();
  return res;
}

double LatencyPercentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size());
  size_t i = static_cast<size_t>(std::ceil(rank));
  i = std::min(std::max<size_t>(i, 1), values.size());
  return values[i - 1];
}

}  // namespace smoothscan
