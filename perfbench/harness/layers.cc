#include "layers.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "access/parallel_scan.h"
#include "common/rng.h"
#include "compress/compressed_extent_map.h"
#include "engine/session.h"
#include "exec/task_scheduler.h"
#include "net/frame.h"
#include "net/wire_client.h"
#include "plan/access_path_chooser.h"

namespace perfbench {

using namespace smoothscan;

namespace {

constexpr int kKeyColumn = MicroBenchDb::kIndexedColumn;
constexpr double kGrid[] = {0.00001, 0.0001, 0.001, 0.01, 0.05,
                            0.10,    0.20,   0.50,  1.0};
constexpr PathKind kSerialKinds[] = {PathKind::kFullScan, PathKind::kIndexScan,
                                     PathKind::kSortScan, PathKind::kSwitchScan,
                                     PathKind::kSmoothScan};
constexpr int kReps = 3;
// Short drains repeat until this much wall time is covered (at most
// kMaxReps times), so timings on small tables rest on more than 3 samples.
constexpr double kMinTimedMs = 50.0;
constexpr int kMaxReps = 25;

const char* KindName(PathKind kind) {
  switch (kind) {
    case PathKind::kFullScan:
      return "full";
    case PathKind::kIndexScan:
      return "index";
    case PathKind::kSortScan:
      return "sort";
    case PathKind::kSwitchScan:
      return "switch";
    case PathKind::kSmoothScan:
      return "smooth";
    default:
      return "other";
  }
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// One cold Open/NextBatch/Close drain of `path` with the simulated charge
/// it put on the engine streams (the recipe of the repo's figure benches).
struct Drain {
  double sim = 0.0;
  double wall_ms = 0.0;
  uint64_t tuples = 0;
  AccessPathStats stats;
};

Drain ColdDrain(Engine* engine, AccessPath* path, SpanRecorder* spans) {
  engine->ColdRestart();
  const double before = engine->TotalTime();
  Drain d;
  const Clock::time_point start = Clock::now();
  {
    SpanRecorder::Scope s = spans->Open("access.Open");
    SMOOTHSCAN_CHECK(path->Open().ok());
  }
  TupleBatch batch;
  while (true) {
    SpanRecorder::Scope s = spans->Open("access.NextBatch");
    if (!path->NextBatch(&batch)) break;
    d.tuples += batch.size();
  }
  d.stats = path->stats();
  {
    SpanRecorder::Scope s = spans->Open("access.Close");
    path->Close();
  }
  d.wall_ms = MsBetween(start, Clock::now());
  d.sim = engine->TotalTime() - before;
  return d;
}

Drain SerialDrain(Engine* engine, const MicroBenchDb& db, PathKind kind,
                  const ScanPredicate& pred, uint64_t estimate,
                  SpanRecorder* spans) {
  SpanRecorder::Scope s =
      spans->Open(std::string("access.drain.") + KindName(kind));
  std::unique_ptr<AccessPath> path =
      MakePath(kind, &db.index(), pred, /*need_order=*/false, estimate);
  return ColdDrain(engine, path.get(), spans);
}

Drain ParallelDrain(Engine* engine, const MicroBenchDb& db, PathKind kind,
                    const ScanPredicate& pred, uint64_t estimate, uint32_t dop,
                    TaskScheduler* scheduler, SpanRecorder* spans) {
  SpanRecorder::Scope s = spans->Open(std::string("exec.parallel_drain.") +
                                      KindName(kind));
  ParallelScanOptions po;
  po.dop = dop;
  po.scheduler = scheduler;
  std::unique_ptr<ParallelScan> path =
      MakeParallelPath(kind, &db.index(), pred, false, estimate, po);
  SMOOTHSCAN_CHECK(path != nullptr);
  return ColdDrain(engine, path.get(), spans);
}

/// Median wall time over repeated runs of `run` (which returns a Drain).
template <typename Fn>
double MedianWallMs(Fn&& run) {
  std::vector<double> walls;
  double total = 0.0;
  while (static_cast<int>(walls.size()) < kReps ||
         (total < kMinTimedMs && static_cast<int>(walls.size()) < kMaxReps)) {
    walls.push_back(run().wall_ms);
    total += walls.back();
  }
  return Median(walls);
}

std::vector<double> Field(const std::vector<QueryMetrics>& ms,
                          double QueryMetrics::*field) {
  std::vector<double> out;
  out.reserve(ms.size());
  for (const QueryMetrics& m : ms) out.push_back(m.*field);
  return out;
}

}  // namespace

std::vector<Metric> MeasureLayers(Workload* w, const RunStats& traced,
                                  const RunStats& untraced,
                                  SpanRecorder* spans) {
  std::vector<Metric> out;
  auto add = [&out](const std::string& name, const char* unit, double v) {
    out.push_back(Metric{name, unit, std::isfinite(v) ? v : 0.0});
  };
  Engine* engine = w->engine();
  const MicroBenchDb& db = *w->db();
  const HeapFile& heap = db.heap();

  // ------------------------------------------------------------- storage
  {
    std::vector<double> ns;
    for (int i = 0; i < kReps; ++i) {
      SpanRecorder::Scope s = spans->Open("storage.HeapFile::ForEachDirect");
      uint64_t n = 0;
      const Clock::time_point t0 = Clock::now();
      heap.ForEachDirect([&n](Tid, const Tuple&) { ++n; });
      ns.push_back(MsBetween(t0, Clock::now()) * 1e6 /
                   static_cast<double>(std::max<uint64_t>(1, n)));
    }
    add("storage.decode_ns_per_tuple", "ns", Median(ns));
  }
  {
    std::vector<double> ns;
    const PageId pages = static_cast<PageId>(heap.num_pages());
    for (int i = 0; i < kReps; ++i) {
      engine->ColdRestart();
      SpanRecorder::Scope s = spans->Open("storage.BufferPool::Fetch");
      const Clock::time_point t0 = Clock::now();
      for (PageId p = 0; p < pages; ++p) {
        PageGuard g = engine->pool().Fetch(heap.file_id(), p);
      }
      ns.push_back(MsBetween(t0, Clock::now()) * 1e6 /
                   static_cast<double>(std::max<PageId>(1, pages)));
    }
    add("storage.fetch_ns_per_page", "ns", Median(ns));
  }
  {
    double pages = 0.0, random = 0.0, requests = 0.0;
    for (const QueryMetrics& m : traced.read_metrics) {
      pages += static_cast<double>(m.pages_read);
      random += static_cast<double>(m.random_ios);
      requests += static_cast<double>(m.io_requests);
    }
    add("storage.pages_read_per_query", "pages",
        Ratio(pages, static_cast<double>(traced.read_metrics.size())));
    add("storage.random_io_share", "ratio", Ratio(random, requests));
    const double hits = traced.registry.Value("bufferpool.hits");
    const double misses = traced.registry.Value("bufferpool.misses");
    add("storage.bufferpool_hit_rate", "ratio", Ratio(hits, hits + misses));
    add("storage.write_back_pages", "pages",
        traced.registry.Value("bufferpool.write_backs"));
  }

  // --------------------------------------------------------------- index
  {
    Rng rng(0x1dea);
    std::vector<double> us;
    engine->ColdRestart();
    for (int i = 0; i < 200; ++i) {
      const int64_t key = rng.UniformInt(0, db.value_max());
      SpanRecorder::Scope s = spans->Open("index.BPlusTree::Seek");
      const Clock::time_point t0 = Clock::now();
      BPlusTree::Iterator it = db.index().Seek(key);
      if (it.Valid()) (void)it.tid();
      us.push_back(MsBetween(t0, Clock::now()) * 1e3);
    }
    add("index.seek_us", "us", Median(us));
  }

  // -------------------------------------------- access, plan, exec (grid)
  TaskScheduler scheduler(2);
  struct GridPoint {
    double sel;
    ScanPredicate pred;
    uint64_t truth;
    Drain drains[5];
    Drain par_smooth;
  };
  std::vector<GridPoint> grid;
  for (const double sel : kGrid) {
    GridPoint g;
    g.sel = sel;
    g.pred = db.PredicateForSelectivity(sel);
    g.truth = 0;
    for (int k = 0; k < 5; ++k) {
      g.drains[k] =
          SerialDrain(engine, db, kSerialKinds[k], g.pred, g.truth, spans);
      if (k == 0) g.truth = g.drains[0].tuples;  // Exact estimate for the rest.
    }
    g.par_smooth = ParallelDrain(engine, db, PathKind::kSmoothScan, g.pred,
                                 g.truth, 2, &scheduler, spans);
    grid.push_back(std::move(g));
  }
  {
    double smooth_over_best = 0.0, chosen_over_best = 0.0, par_ratio = 0.0;
    double inspected = 0.0, produced = 0.0;
    std::vector<double> choose_us;
    for (const GridPoint& g : grid) {
      double best = g.drains[0].sim;
      for (const Drain& d : g.drains) best = std::min(best, d.sim);
      smooth_over_best =
          std::max(smooth_over_best, Ratio(g.drains[4].sim, best));
      inspected += static_cast<double>(g.drains[4].stats.tuples_inspected);
      produced += static_cast<double>(g.drains[4].stats.tuples_produced);
      par_ratio = std::max(par_ratio, Ratio(g.par_smooth.sim, g.drains[4].sim));
      const PlanChoice choice = AccessPathChooser::Choose(
          *w->stats(), *w->cost_model(), g.pred.lo, g.pred.hi, false);
      for (int k = 0; k < 5; ++k) {
        if (kSerialKinds[k] == choice.kind) {
          chosen_over_best =
              std::max(chosen_over_best, Ratio(g.drains[k].sim, best));
        }
      }
    }
    for (const ReadQuery& q : w->round()) {
      SpanRecorder::Scope s = spans->Open("plan.AccessPathChooser::Choose");
      const Clock::time_point t0 = Clock::now();
      const PlanChoice c = AccessPathChooser::Choose(
          *w->stats(), *w->cost_model(), q.lo, q.hi, false);
      choose_us.push_back(MsBetween(t0, Clock::now()) * 1e3);
      (void)c;
    }
    add("plan.choose_us", "us", Median(choose_us));
    add("plan.chosen_over_best_sim_max", "ratio", chosen_over_best);
    add("access.smooth_over_best_sim_max", "ratio", smooth_over_best);
    add("access.inspected_per_produced", "ratio", Ratio(inspected, produced));
    add("exec.par_smooth_sim_ratio_max", "ratio", par_ratio);
  }
  {
    // Per-path wall time per tuple at 1% and 100% (MedianWallMs drains).
    const GridPoint* sel1 = nullptr;
    const GridPoint* sel100 = nullptr;
    for (const GridPoint& g : grid) {
      if (g.sel == 0.01) sel1 = &g;
      if (g.sel == 1.0) sel100 = &g;
    }
    double smooth100 = 0.0, full100 = 0.0;
    for (const GridPoint* g : {sel1, sel100}) {
      for (int k = 0; k < 5; ++k) {
        const double ms = MedianWallMs([&] {
          return SerialDrain(engine, db, kSerialKinds[k], g->pred, g->truth,
                             spans);
        });
        const double ns = ms * 1e6 /
                          static_cast<double>(std::max<uint64_t>(1, g->truth));
        add(std::string("access.") + KindName(kSerialKinds[k]) +
                ".ns_per_tuple." + (g == sel1 ? "sel1" : "sel100"),
            "ns", ns);
        if (g == sel100 && kSerialKinds[k] == PathKind::kSmoothScan) {
          smooth100 = ms;
        }
        if (g == sel100 && kSerialKinds[k] == PathKind::kFullScan) {
          full100 = ms;
        }
      }
    }
    add("access.smooth_over_full_wall", "ratio", Ratio(smooth100, full100));
    const double reads = static_cast<double>(traced.reads);
    add("access.smooth.region_grows", "count/query",
        Ratio(traced.registry.Value("smooth.region_grows"), reads));
    add("access.smooth.page_cache_hits", "count/query",
        Ratio(traced.registry.Value("smooth.page_cache_hits"), reads));

    // Morsel machinery at DOP 1 and 2 against the serial operator, 100%.
    for (const PathKind kind : {PathKind::kFullScan, PathKind::kSmoothScan}) {
      const double serial = kind == PathKind::kFullScan ? full100 : smooth100;
      const double dop1 = MedianWallMs([&] {
        return ParallelDrain(engine, db, kind, sel100->pred, sel100->truth, 1,
                             &scheduler, spans);
      });
      const double dop2 = MedianWallMs([&] {
        return ParallelDrain(engine, db, kind, sel100->pred, sel100->truth, 2,
                             &scheduler, spans);
      });
      add(std::string("exec.par_dop1_overhead.") + KindName(kind), "ratio",
          Ratio(dop1, serial));
      add(std::string("exec.dop2_speedup.") + KindName(kind), "ratio",
          Ratio(serial, dop2));
    }
  }

  // ---------------------------------------------------------- plan (text)
  QueryCatalog local_catalog;
  {
    TableBinding binding;
    binding.index = &db.index();
    binding.stats = w->stats();
    binding.cost_model = w->cost_model();
    local_catalog.Register("t", binding);
    std::vector<double> us;
    for (int rep = 0; rep < 20; ++rep) {
      for (const ReadQuery& q : w->round()) {
        SpanRecorder::Scope s =
            spans->Open("plan.ParseQueryText+BindStatement");
        const Clock::time_point t0 = Clock::now();
        Result<ParsedStatement> parsed = ParseQueryText(q.text);
        SMOOTHSCAN_CHECK(parsed.ok());
        Result<QuerySpec> bound = BindStatement(local_catalog, parsed.value());
        SMOOTHSCAN_CHECK(bound.ok());
        us.push_back(MsBetween(t0, Clock::now()) * 1e3);
      }
    }
    add("plan.parse_bind_us", "us", Median(us));
  }

  // ----------------------------------------------------- engine (direct)
  {
    // Session run of a 10% Smooth Scan against the same path drained
    // directly: what the engine adds per delivered tuple.
    const ScanPredicate pred = db.PredicateForSelectivity(0.10);
    Session session(w->query_engine());
    std::vector<double> session_ms, direct_ms;
    uint64_t tuples = 0;
    for (int i = 0; i < 5; ++i) {
      engine->ColdRestart();
      SpanRecorder::Scope s = spans->Open("engine.Session::Run");
      const Clock::time_point t0 = Clock::now();
      QueryHandle h = session.Query()
                          .Table(&db.index())
                          .Predicate(pred)
                          .Policy(PathKind::kSmoothScan)
                          .AllowSharing(false)
                          .Stream()
                          .Submit();
      TupleBatch batch;
      tuples = 0;
      while (h.NextBatch(&batch)) tuples += batch.size();
      h.Wait();
      session_ms.push_back(MsBetween(t0, Clock::now()));
      s.End();
      direct_ms.push_back(
          SerialDrain(engine, db, PathKind::kSmoothScan, pred, 0, spans)
              .wall_ms);
    }
    add("engine.overhead_ns_per_tuple", "ns",
        (Median(session_ms) - Median(direct_ms)) * 1e6 /
            static_cast<double>(std::max<uint64_t>(1, tuples)));
  }

  // ---------------------------------------------------------------- net
  {
    std::unique_ptr<net::Server> local_server;
    net::Server* server = w->server();
    if (server == nullptr) {
      local_server =
          std::make_unique<net::Server>(w->query_engine(), &local_catalog);
      server = local_server.get();
    }
    const ScanPredicate pred = db.PredicateForSelectivity(0.001);
    const std::string text =
        SelectText(pred.lo, pred.hi, "POLICY=smooth, SHARING=0");
    net::WireClient client(server->ConnectPipe());
    client.Hello("batch", 1);
    Session session(w->query_engine());
    std::vector<double> wire_us, session_us;
    for (int i = 0; i < 40; ++i) {
      {
        SpanRecorder::Scope s = spans->Open("net.WireClient::Submit+Wait");
        const Clock::time_point t0 = Clock::now();
        net::WireResult r = client.Wait(client.Submit(text));
        SMOOTHSCAN_CHECK(r.complete && r.status.ok());
        wire_us.push_back(MsBetween(t0, Clock::now()) * 1e3);
      }
      {
        SpanRecorder::Scope s = spans->Open("engine.Session::Run(text)");
        const Clock::time_point t0 = Clock::now();
        Result<ParsedStatement> parsed = ParseQueryText(text);
        Result<QuerySpec> bound = BindStatement(local_catalog, parsed.value());
        QueryHandle h = session.Query()
                            .FromSpec(std::move(bound).value())
                            .Stream()
                            .Submit();
        TupleBatch batch;
        while (h.NextBatch(&batch)) {
        }
        SMOOTHSCAN_CHECK(h.Wait().status.ok());
        session_us.push_back(MsBetween(t0, Clock::now()) * 1e3);
      }
    }
    add("net.wire_overhead_us", "us", Median(wire_us) - Median(session_us));

    // Codec round trip of one full result batch.
    std::unique_ptr<AccessPath> scan =
        MakePath(PathKind::kFullScan, &db.index(),
                 db.PredicateForSelectivity(1.0), false, 0);
    SMOOTHSCAN_CHECK(scan->Open().ok());
    TupleBatch batch;
    SMOOTHSCAN_CHECK(scan->NextBatch(&batch));
    scan->Close();
    std::vector<double> ns;
    for (int i = 0; i < 30; ++i) {
      SpanRecorder::Scope s = spans->Open("net.codec");
      const Clock::time_point t0 = Clock::now();
      std::string wire;
      net::EncodeFrame({net::FrameType::kBatch,
                        net::EncodeBatchPayload(7, batch)},
                       &wire);
      net::FrameDecoder decoder;
      SMOOTHSCAN_CHECK(decoder.Feed(wire.data(), wire.size()).ok());
      net::Frame frame;
      SMOOTHSCAN_CHECK(decoder.Pop(&frame));
      uint64_t tag = 0;
      std::vector<std::vector<int64_t>> rows;
      SMOOTHSCAN_CHECK(
          net::ParseBatchPayload(frame.payload, &tag, &rows).ok());
      SMOOTHSCAN_CHECK(rows.size() == batch.size());
      ns.push_back(MsBetween(t0, Clock::now()) * 1e6 /
                   static_cast<double>(batch.size()));
    }
    add("net.codec_ns_per_tuple", "ns", Median(ns));
    client.Close();
    const net::ServerStats st =
        traced.has_server ? traced.server : server->stats();
    add("net.window_stalls", "count", static_cast<double>(st.window_stalls));
    add("net.backpressure_shrinks", "count",
        static_cast<double>(st.backpressure_shrinks));
    add("net.queries_error", "count", static_cast<double>(st.queries_error));
    add("net.frames_malformed", "count",
        static_cast<double>(st.frames_malformed));
  }

  // ----------------------------------------------------- engine (counters)
  {
    add("engine.queue_wait_ms_p50", "ms",
        Percentile(Field(traced.read_metrics, &QueryMetrics::queue_wait_ms),
                   0.5));
    add("engine.queue_wait_ms_p95", "ms",
        Percentile(Field(traced.read_metrics, &QueryMetrics::queue_wait_ms),
                   0.95));
    add("engine.sla_queue_wait_ms_p95", "ms",
        Percentile(Field(traced.sla_metrics, &QueryMetrics::queue_wait_ms),
                   0.95));
    add("engine.exec_ms_p50", "ms",
        Percentile(Field(traced.read_metrics, &QueryMetrics::exec_ms), 0.5));
    add("engine.window_stalls", "count",
        static_cast<double>(traced.session_window_stalls));
  }

  // ------------------------------------------------------------- mem
  add("mem.batch_reuse_ratio", "ratio",
      Ratio(traced.registry.Value("batchpool.reuses"),
            traced.registry.Value("batchpool.acquires")));
  add("mem.broker_peak_mb", "MB", traced.broker_peak_mb);

  // --------------------------------------------------------- sharing
  add("sharing.fetch_ratio", "ratio",
      Ratio(static_cast<double>(traced.sharing_delta.pages_fetched),
            traced.shared_solo_pages));
  add("sharing.fanout", "ratio",
      Ratio(static_cast<double>(traced.sharing_delta.chunk_claims),
            static_cast<double>(traced.sharing_delta.chunks_produced)));

  // ----------------------------------------------------------- write
  {
    double exec_us = 0.0;
    for (const QueryMetrics& m : traced.write_metrics) {
      exec_us += m.exec_ms * 1e3;
    }
    add("write.exec_us_per_op", "us",
        Ratio(exec_us, static_cast<double>(traced.write_ops)));
    add("write.queue_wait_ms_p95", "ms",
        Percentile(Field(traced.write_metrics, &QueryMetrics::queue_wait_ms),
                   0.95));
  }

  // -------------------------------------------------------- compress
  {
    std::unique_ptr<CompressedExtentMap> local_map;
    CompressedExtentMap* map = w->compressed();
    if (map == nullptr) {
      local_map = std::make_unique<CompressedExtentMap>(engine);
      local_map->Enable(&heap, kKeyColumn);
      map = local_map.get();
    }
    std::vector<double> ms;
    for (int i = 0; i < kReps; ++i) {
      SpanRecorder::Scope s =
          spans->Open("compress.CompressedExtentMap::Rebuild");
      const Clock::time_point t0 = Clock::now();
      map->Rebuild(heap.file_id());
      ms.push_back(MsBetween(t0, Clock::now()));
    }
    const CompressedExtentRef extent = map->Lookup(heap.file_id());
    add("compress.rebuilds", "count",
        static_cast<double>(traced.compress_rebuilds));
    add("compress.rebuild_ms", "ms", Median(ms));
    add("compress.page_ratio", "ratio",
        extent != nullptr ? extent->page_ratio() : 0.0);
  }

  // ----------------------------------------------------- obs and driver
  add("obs.trace_overhead_ratio", "ratio",
      Ratio(Ratio(traced.wall_s, static_cast<double>(traced.reads)),
            Ratio(untraced.wall_s, static_cast<double>(untraced.reads))));
  add("driver.sla_lag_ms_p95", "ms", Percentile(traced.sla_lag_ms, 0.95));
  return out;
}

}  // namespace perfbench
