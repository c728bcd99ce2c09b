#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "compress/compressed_extent_map.h"
#include "engine/session.h"
#include "exec/task_scheduler.h"
#include "mem/memory_broker.h"
#include "net/wire_client.h"
#include "obs/trace.h"
#include "plan/query_text.h"
#include "write/table_version.h"
#include "write/table_writer.h"

namespace perfbench {

using namespace smoothscan;

namespace {

constexpr int kKeyColumn = MicroBenchDb::kIndexedColumn;  // c2
constexpr int64_t kValueMax = 100000;
constexpr size_t kMaxErrors = 8;

/// The paper's selectivity grid, 0.001% to 100%.
constexpr double kGrid[] = {0.00001, 0.0001, 0.001, 0.01, 0.05,
                            0.10,    0.20,   0.50,  1.0};

int64_t WidthFor(double selectivity) {
  return std::max<int64_t>(
      1, std::llround(selectivity * static_cast<double>(kValueMax + 1)));
}

/// A range of `selectivity` at a seeded offset.
ReadQuery RangeQuery(Rng* rng, double selectivity, const std::string& opts) {
  const int64_t width = WidthFor(selectivity);
  ReadQuery q;
  q.lo = rng->UniformInt(0, kValueMax + 1 - width);
  q.hi = q.lo + width;
  q.text = SelectText(q.lo, q.hi, opts);
  return q;
}

/// The i-th of n selectivities evenly spaced over [lo, hi]: the seed picks
/// offsets and order, never the selectivity mix, so seeds stay comparable.
double Spaced(double lo, double hi, int i, int n) {
  return lo + (hi - lo) * (static_cast<double>(i) + 0.5) / n;
}

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

ScanPredicate KeyRange(int64_t lo, int64_t hi) {
  ScanPredicate p;
  p.column = kKeyColumn;
  p.lo = lo;
  p.hi = hi;
  return p;
}

/// Thread-safe failure ledger shared by a run's client threads.
class Failures {
 public:
  void Fail(std::string what) {
    std::lock_guard<std::mutex> lock(mu_);
    ++failed_;
    if (errors_.size() < kMaxErrors) errors_.push_back(std::move(what));
  }
  void MoveInto(RunStats* out) {
    std::lock_guard<std::mutex> lock(mu_);
    out->failed += failed_;
    for (std::string& e : errors_) out->errors.push_back(std::move(e));
    errors_.clear();
    failed_ = 0;
  }

 private:
  std::mutex mu_;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

/// Checks one query's status and digest against the oracle.
bool CheckRead(const Status& status, const ResultDigest& got,
               const ResultDigest& want, const char* who, Failures* fails) {
  char buf[192];
  if (!status.ok()) {
    std::snprintf(buf, sizeof buf, "%s: query failed: %s", who,
                  status.ToString().c_str());
    fails->Fail(buf);
    return false;
  }
  if (!(got == want)) {
    std::snprintf(buf, sizeof buf,
                  "%s: wrong result: %" PRIu64 " tuples (checksum %" PRIx64
                  "), expected %" PRIu64 " (checksum %" PRIx64 ")",
                  who, got.count, got.checksum, want.count, want.checksum);
    fails->Fail(buf);
    return false;
  }
  return true;
}

/// Digests a wire result's rows and checks it like CheckRead; a connection
/// that died before DONE counts as a failed query.
bool CheckWireRead(const net::WireResult& r, const ResultDigest& want,
                   const char* who, Failures* fails, ResultDigest* digest) {
  for (const std::vector<int64_t>& row : r.rows) digest->Add(row[0]);
  Status status = r.status;
  if (!r.complete && status.ok()) {
    status = Status::Internal("connection closed before DONE");
  }
  return CheckRead(status, *digest, want, who, fails);
}

/// Records the simulated cost of stream position `pos` of a round of
/// `round_size` queries: the first occurrence fills the round, every later
/// one must repeat it bit for bit.
void CheckRepeat(std::vector<double>* round, size_t round_size, size_t pos,
                 double sim, const char* who, Failures* fails) {
  const size_t idx = pos % round_size;
  // NaN marks a position whose first run failed (and was counted failed).
  if (idx >= round->size()) round->resize(idx + 1, std::nan(""));
  if (std::isnan((*round)[idx])) {
    (*round)[idx] = sim;
    return;
  }
  if ((*round)[idx] != sim) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s: simulated cost of stream query %zu changed across "
                  "repetitions (%.17g vs %.17g)",
                  who, idx, (*round)[idx], sim);
    fails->Fail(buf);
  }
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// One streamed in-process query: submit through the session, pull every
/// result batch, wait for the metrics.
struct StreamedRead {
  QueryResult result;
  ResultDigest digest;
  double latency_ms = 0.0;
  Clock::time_point done;
};

StreamedRead RunStreamed(Session* session, QuerySpec spec,
                         SpanRecorder* spans) {
  StreamedRead out;
  SpanRecorder::Scope query = spans->Open("client.read");
  const Clock::time_point start = Clock::now();
  QueryHandle handle;
  {
    SpanRecorder::Scope s = spans->Open("engine.Session::Submit");
    handle = session->Query().FromSpec(std::move(spec)).Stream().Submit();
  }
  query.SetQuery(handle.id());
  {
    SpanRecorder::Scope s = spans->Open("engine.QueryHandle::Drain",
                                        handle.id());
    TupleBatch batch;
    while (handle.NextBatch(&batch)) {
      for (size_t i = 0; i < batch.size(); ++i) {
        out.digest.Add(batch.row(i)[0].AsInt64());
      }
    }
  }
  {
    SpanRecorder::Scope s = spans->Open("engine.QueryHandle::Wait",
                                        handle.id());
    out.result = handle.Take();
  }
  out.done = Clock::now();
  out.latency_ms = MsBetween(start, out.done);
  return out;
}

// ------------------------------------------------------------- sweep_solo

class SweepSolo : public Workload {
 public:
  explicit SweepSolo(uint64_t seed) : seed_(seed) {}

  void Setup(bool observed) override {
    EngineOptions eo;
    eo.buffer_pool_pages = 512;
    engine_ = std::make_unique<Engine>(eo);
    MicroBenchSpec spec;
    spec.num_tuples = 400000;
    spec.value_max = kValueMax;
    spec.seed = seed_;
    db_ = std::make_unique<MicroBenchDb>(engine_.get(), spec);
    stats_ = TableStats::Compute(db_->heap(), kKeyColumn);
    model_ = std::make_unique<CostModel>(MakeCostModel(*engine_, db_->heap()));
    scheduler_ = std::make_unique<TaskScheduler>(2);
    QueryEngineOptions qeo;
    qeo.max_admitted = 1;
    qeo.scheduler = scheduler_.get();
    if (observed) {
      qeo.metrics = &registry_;
      qeo.tracing = &trace_;
    }
    qe_ = std::make_unique<QueryEngine>(engine_.get(), qeo);

    // One round: every grid selectivity under each of the three policies,
    // in seeded order at seeded offsets.
    Rng rng(seed_ ^ 0x5eed5eedULL);
    struct Mode {
      const char* opts;
      bool chooser;
      uint32_t dop;
    };
    static constexpr Mode kModes[] = {{"POLICY=smooth, DOP=0", false, 0},
                                      {"POLICY=smooth, DOP=2", false, 2},
                                      {"POLICY=auto", true, 0}};
    round_.clear();
    modes_.clear();
    for (const double sel : kGrid) {
      for (const Mode& m : kModes) {
        round_.push_back(RangeQuery(&rng, sel, m.opts));
        modes_.push_back({m.chooser, m.dop});
      }
    }
    std::vector<size_t> order(round_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    Shuffle(&order, &rng);
    std::vector<ReadQuery> queries;
    std::vector<std::pair<bool, uint32_t>> modes;
    for (const size_t i : order) {
      queries.push_back(round_[i]);
      modes.push_back(modes_[i]);
    }
    round_ = std::move(queries);
    modes_ = std::move(modes);
  }

  RunStats Run(double seconds, SpanRecorder* spans) override {
    RunStats out;
    Failures fails;
    oracle_.Rebuild(db_->heap(), kKeyColumn);
    SessionOptions so;
    so.max_outstanding = 1;
    so.name = "sweep_solo";
    Session session(qe_.get(), so);
    size_t pos = 0;
    auto run_round = [&](bool timed) {
      for (size_t i = 0; i < round_.size(); ++i, ++pos) {
        const ReadQuery& q = round_[i];
        QuerySpec spec;
        spec.index = &db_->index();
        spec.predicate = KeyRange(q.lo, q.hi);
        if (modes_[i].first) {
          spec.use_chooser = true;
          spec.stats = &stats_;
          spec.cost_model = model_.get();
        } else {
          spec.kind = PathKind::kSmoothScan;
          spec.dop = modes_[i].second;
        }
        StreamedRead r = RunStreamed(&session, std::move(spec), spans);
        ++out.attempted;
        if (!CheckRead(r.result.status, r.digest, oracle_.Expect(q.lo, q.hi),
                       "sweep_solo", &fails)) {
          continue;
        }
        CheckRepeat(&out.round_costs, round_.size(), pos,
                    r.result.metrics.sim_time, "sweep_solo", &fails);
        if (!timed) continue;
        ++out.reads;
        out.tuples += r.digest.count;
        out.latency_ms.push_back(r.latency_ms);
        out.read_metrics.push_back(r.result.metrics);
      }
    };
    run_round(/*timed=*/false);  // Warm-up; fills the reference round.
    const Clock::time_point start = Clock::now();
    do {
      const Clock::time_point round_start = Clock::now();
      const uint64_t reads = out.reads;
      const uint64_t tuples = out.tuples;
      run_round(/*timed=*/true);
      const double s = MsBetween(round_start, Clock::now()) / 1e3;
      out.unit_qps.push_back(static_cast<double>(out.reads - reads) / s);
      out.unit_tuples_per_s.push_back(
          static_cast<double>(out.tuples - tuples) / s);
    } while (MsBetween(start, Clock::now()) < seconds * 1e3);
    out.wall_s = MsBetween(start, Clock::now()) / 1e3;
    out.sim_cost_per_query = Mean(out.round_costs);
    out.session_window_stalls = session.window_stalls();
    out.registry = registry_.Snapshot();
    fails.MoveInto(&out);
    return out;
  }

  Engine* engine() override { return engine_.get(); }
  MicroBenchDb* db() override { return db_.get(); }
  QueryEngine* query_engine() override { return qe_.get(); }
  const TableStats* stats() override { return &stats_; }
  const CostModel* cost_model() override { return model_.get(); }
  const std::vector<ReadQuery>& round() const override { return round_; }

 private:
  const uint64_t seed_;
  obs::MetricsRegistry registry_;
  obs::TraceCollector trace_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<MicroBenchDb> db_;
  TableStats stats_;
  std::unique_ptr<CostModel> model_;
  std::unique_ptr<TaskScheduler> scheduler_;
  std::unique_ptr<QueryEngine> qe_;
  std::vector<ReadQuery> round_;
  std::vector<std::pair<bool, uint32_t>> modes_;  ///< (chooser, dop).
  ResultOracle oracle_;
};

// ---------------------------------------------------------- wire_overload

constexpr uint32_t kBatchConns = 3;
constexpr uint32_t kBatchWindow = 2;
constexpr size_t kSlaRound = 50;
constexpr double kSlaPeriodMs = 5.0;
constexpr size_t kRateChunk = 24;  // Completions per throughput unit.

class WireOverload : public Workload {
 public:
  explicit WireOverload(uint64_t seed) : seed_(seed) {}

  void Setup(bool observed) override {
    EngineOptions eo;
    eo.buffer_pool_pages = 1024;
    engine_ = std::make_unique<Engine>(eo);
    MicroBenchSpec spec;
    spec.num_tuples = 60000;
    spec.value_max = kValueMax;
    spec.seed = seed_;
    db_ = std::make_unique<MicroBenchDb>(engine_.get(), spec);
    // The bound statistics underestimate every range by 100x.
    stats_ = TableStats::Compute(db_->heap(), kKeyColumn);
    stats_.CorruptScale(0.01);
    model_ = std::make_unique<CostModel>(MakeCostModel(*engine_, db_->heap()));
    QueryEngineOptions qeo;
    qeo.max_admitted = 3;
    qeo.sla_reserved_slots = 1;
    if (observed) {
      qeo.metrics = &registry_;
      qeo.tracing = &trace_;
    }
    qe_ = std::make_unique<QueryEngine>(engine_.get(), qeo);
    TableBinding binding;
    binding.index = &db_->index();
    binding.stats = &stats_;
    binding.cost_model = model_.get();
    catalog_.Register("t", binding);
    net::ServerOptions so;
    so.session.max_outstanding = kBatchWindow;
    so.backpressure_queue_factor = 2;
    so.backpressure_window = 1;
    server_ = std::make_unique<net::Server>(qe_.get(), &catalog_, so);

    // Per batch connection: the drifting stream, all POLICY=auto. It cycles
    // through the trickle, drifted and report phases in short steps of two
    // queries (connection c starts at phase c), so the mix the engine sees
    // is the same at any moment of the run and in every seed.
    struct Phase {
      double lo, hi;
    };
    static constexpr Phase kPhases[] = {{0.0005, 0.002}, {0.05, 0.2},
                                        {0.5, 1.0}};
    constexpr int kPerPhase = 8;
    constexpr int kStep = 2;
    streams_.assign(kBatchConns, {});
    for (uint32_t c = 0; c < kBatchConns; ++c) {
      Rng rng = Rng(seed_).Fork(c + 1);
      std::vector<ReadQuery> phases[3];
      for (int p = 0; p < 3; ++p) {
        for (int i = 0; i < kPerPhase; ++i) {
          phases[p].push_back(RangeQuery(
              &rng, Spaced(kPhases[p].lo, kPhases[p].hi, i, kPerPhase),
              "POLICY=auto"));
        }
        Shuffle(&phases[p], &rng);
      }
      for (int step = 0; step < kPerPhase / kStep; ++step) {
        for (uint32_t p = 0; p < 3; ++p) {
          const std::vector<ReadQuery>& phase = phases[(p + c) % 3];
          streams_[c].insert(streams_[c].end(), phase.begin() + step * kStep,
                             phase.begin() + (step + 1) * kStep);
        }
      }
    }
    Rng sla_rng = Rng(seed_).Fork(99);
    sla_.clear();
    for (size_t i = 0; i < kSlaRound; ++i) {
      sla_.push_back(RangeQuery(&sla_rng, 0.001, "POLICY=smooth, LANE=sla"));
    }
  }

  RunStats Run(double seconds, SpanRecorder* spans) override {
    RunStats out;
    out.has_server = true;
    out.sla_period_ms = kSlaPeriodMs;
    Failures fails;
    oracle_.Rebuild(db_->heap(), kKeyColumn);
    const double warmup_ms = std::min(1000.0, seconds * 100.0);
    const Clock::time_point begin = Clock::now();
    const Clock::time_point t_start =
        begin + std::chrono::microseconds(
                    static_cast<int64_t>(warmup_ms * 1e3));
    const Clock::time_point t_stop =
        t_start +
        std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
    auto in_window = [&](Clock::time_point t) {
      return t >= t_start && t < t_stop;
    };

    struct ConnOut {
      uint64_t attempted = 0;
      std::vector<double> round_costs;
      std::vector<double> latency_ms;
      std::vector<QueryMetrics> metrics;
      uint64_t tuples = 0;
      std::vector<double> lag_ms;
      /// (completion time in s from the window start, tuples) per counted
      /// read.
      std::vector<std::pair<double, uint64_t>> done;
    };
    std::vector<ConnOut> conns(kBatchConns + 1);
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < kBatchConns; ++c) {
      threads.emplace_back([&, c] {
        ConnOut& co = conns[c];
        const std::vector<ReadQuery>& stream = streams_[c];
        net::WireClient client(server_->ConnectPipe());
        client.Hello("batch", kBatchWindow);
        struct InFlight {
          uint64_t tag;
          size_t pos;
          Clock::time_point submit;
        };
        std::deque<InFlight> inflight;
        size_t pos = 0;
        auto more = [&] {
          return Clock::now() < t_stop || pos < stream.size();
        };
        while (more() || !inflight.empty()) {
          while (inflight.size() < kBatchWindow && more()) {
            SpanRecorder::Scope s = spans->Open("net.WireClient::Submit");
            const Clock::time_point submit = Clock::now();
            inflight.push_back(
                {client.Submit(stream[pos % stream.size()].text), pos,
                 submit});
            ++pos;
          }
          const InFlight f = inflight.front();
          inflight.pop_front();
          net::WireResult r;
          {
            SpanRecorder::Scope s = spans->Open("net.WireClient::Wait");
            r = client.Wait(f.tag);
          }
          const Clock::time_point done = Clock::now();
          ++co.attempted;
          const ReadQuery& q = stream[f.pos % stream.size()];
          ResultDigest digest;
          if (!CheckWireRead(r, oracle_.Expect(q.lo, q.hi),
                             "wire_overload batch", &fails, &digest)) {
            continue;
          }
          CheckRepeat(&co.round_costs, stream.size(), f.pos,
                      r.metrics.sim_time, "wire_overload batch", &fails);
          if (!in_window(done)) continue;
          co.tuples += digest.count;
          co.latency_ms.push_back(MsBetween(f.submit, done));
          co.metrics.push_back(r.metrics);
          co.done.emplace_back(MsBetween(t_start, done) / 1e3, digest.count);
        }
      });
    }
    // Open-loop SLA generator: query i is due at begin + i * period and its
    // latency counts from that due time. The connection keeps one query in
    // flight, so a send delayed by a slow reply is the server's delay (it
    // shows in latency); only a late wake-up is the generator's own lag.
    threads.emplace_back([&] {
      // The generator must keep its schedule while the batch lane saturates
      // every core: raise its priority where the OS allows it (best effort;
      // the lag check below catches a generator that still falls behind).
      setpriority(PRIO_PROCESS, static_cast<id_t>(gettid()), -10);
      ConnOut& co = conns[kBatchConns];
      net::WireClient client(server_->ConnectPipe());
      client.Hello("sla", 1);
      Clock::time_point prev_done = begin;
      for (size_t i = 0;; ++i) {
        const Clock::time_point due =
            begin + std::chrono::microseconds(static_cast<int64_t>(
                        static_cast<double>(i) * kSlaPeriodMs * 1e3));
        if (due >= t_stop && i >= sla_.size()) break;
        std::this_thread::sleep_until(due);
        const Clock::time_point send = Clock::now();
        const double lag = MsBetween(std::max(due, prev_done), send);
        const ReadQuery& q = sla_[i % sla_.size()];
        net::WireResult r;
        {
          SpanRecorder::Scope s = spans->Open("client.sla_read");
          {
            SpanRecorder::Scope s2 = spans->Open("net.WireClient::Submit");
            const uint64_t tag = client.Submit(q.text);
            s2.End();
            SpanRecorder::Scope s3 = spans->Open("net.WireClient::Wait");
            r = client.Wait(tag);
          }
        }
        const Clock::time_point done = Clock::now();
        prev_done = done;
        ++co.attempted;
        ResultDigest digest;
        if (!CheckWireRead(r, oracle_.Expect(q.lo, q.hi), "wire_overload sla",
                           &fails, &digest)) {
          continue;
        }
        CheckRepeat(&co.round_costs, sla_.size(), i, r.metrics.sim_time,
                    "wire_overload sla", &fails);
        if (!in_window(due)) continue;
        co.lag_ms.push_back(std::max(0.0, lag));
        co.latency_ms.push_back(MsBetween(due, done));
        co.metrics.push_back(r.metrics);
      }
    });
    for (std::thread& t : threads) t.join();

    out.wall_s = MsBetween(t_start, t_stop) / 1e3;
    for (uint32_t c = 0; c <= kBatchConns; ++c) {
      ConnOut& co = conns[c];
      out.attempted += co.attempted;
      out.round_costs.insert(out.round_costs.end(), co.round_costs.begin(),
                             co.round_costs.end());
      if (c == kBatchConns) {
        out.sla_latency_ms = std::move(co.latency_ms);
        out.sla_metrics = std::move(co.metrics);
        out.sla_lag_ms = std::move(co.lag_ms);
        continue;
      }
      out.reads += co.metrics.size();
      out.tuples += co.tuples;
      out.latency_ms.insert(out.latency_ms.end(), co.latency_ms.begin(),
                            co.latency_ms.end());
      out.read_metrics.insert(out.read_metrics.end(), co.metrics.begin(),
                              co.metrics.end());
    }
    // Batch-lane throughput per run of kRateChunk consecutive completions.
    std::vector<std::pair<double, uint64_t>> done;
    for (uint32_t c = 0; c < kBatchConns; ++c) {
      done.insert(done.end(), conns[c].done.begin(), conns[c].done.end());
    }
    std::sort(done.begin(), done.end());
    for (size_t i = 0; i + kRateChunk < done.size(); i += kRateChunk) {
      const double s = done[i + kRateChunk].first - done[i].first;
      if (s <= 0.0) continue;
      uint64_t tuples = 0;
      for (size_t j = i + 1; j <= i + kRateChunk; ++j) tuples += done[j].second;
      out.unit_qps.push_back(static_cast<double>(kRateChunk) / s);
      out.unit_tuples_per_s.push_back(static_cast<double>(tuples) / s);
    }
    out.sim_cost_per_query = Mean(out.round_costs);
    out.server = server_->stats();
    out.registry = registry_.Snapshot();
    fails.MoveInto(&out);
    return out;
  }

  Engine* engine() override { return engine_.get(); }
  MicroBenchDb* db() override { return db_.get(); }
  QueryEngine* query_engine() override { return qe_.get(); }
  const TableStats* stats() override { return &stats_; }
  const CostModel* cost_model() override { return model_.get(); }
  net::Server* server() override { return server_.get(); }
  const std::vector<ReadQuery>& round() const override { return streams_[0]; }

 private:
  const uint64_t seed_;
  obs::MetricsRegistry registry_;
  obs::TraceCollector trace_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<MicroBenchDb> db_;
  TableStats stats_;
  std::unique_ptr<CostModel> model_;
  std::unique_ptr<QueryEngine> qe_;
  QueryCatalog catalog_;
  std::unique_ptr<net::Server> server_;
  std::vector<std::vector<ReadQuery>> streams_;
  std::vector<ReadQuery> sla_;
  ResultOracle oracle_;
};

// ---------------------------------------------------------- hotspot_write

constexpr uint32_t kReaders = 3;
constexpr uint32_t kReadsPerPhase = 4;   // Per reader.
constexpr uint32_t kWritesPerPhase = 4;  // Write batches of the writer.
constexpr uint32_t kOpsPerWrite = 32;

class HotspotWrite : public Workload {
 public:
  explicit HotspotWrite(uint64_t seed) : seed_(seed) {}

  void Setup(bool observed) override {
    EngineOptions eo;
    eo.buffer_pool_pages = 512;
    engine_ = std::make_unique<Engine>(eo);
    MicroBenchSpec spec;
    spec.num_tuples = 240000;
    spec.value_max = kValueMax;
    spec.seed = seed_;
    db_ = std::make_unique<MicroBenchDb>(engine_.get(), spec);
    next_id_ = static_cast<int64_t>(spec.num_tuples);
    stats_ = TableStats::Compute(db_->heap(), kKeyColumn);
    model_ = std::make_unique<CostModel>(MakeCostModel(*engine_, db_->heap()));
    versions_ = std::make_unique<TableVersionRegistry>(engine_.get());
    writer_ = std::make_unique<TableWriter>(
        db_->mutable_heap(), std::vector<BPlusTree*>{db_->mutable_index()},
        versions_.get());
    sharing_ = std::make_unique<ScanSharingCoordinator>(engine_.get());
    compressed_ = std::make_unique<CompressedExtentMap>(engine_.get());
    compressed_->Enable(&db_->heap(), kKeyColumn);
    MemoryBrokerOptions bo;
    bo.global_budget_bytes = 64ull << 20;
    broker_ = std::make_unique<MemoryBroker>(bo);
    QueryEngineOptions qeo;
    qeo.max_admitted = 3;
    qeo.sharing = sharing_.get();
    qeo.versions = versions_.get();
    qeo.compressed = compressed_.get();
    qeo.broker = broker_.get();
    if (observed) {
      qeo.metrics = &registry_;
      qeo.tracing = &trace_;
    }
    qe_ = std::make_unique<QueryEngine>(engine_.get(), qeo);

    // Reader streams, all auto: each phase's four reads are one <=1%
    // lookup and three 30-80% scans, in seeded order.
    reader_streams_.assign(kReaders, {});
    for (uint32_t r = 0; r < kReaders; ++r) {
      Rng rng = Rng(seed_).Fork(r + 1);
      constexpr int kPhasesPerRound = 16;
      std::vector<double> lookups, scans;
      for (int i = 0; i < kPhasesPerRound; ++i) {
        lookups.push_back(Spaced(0.0001, 0.01, i, kPhasesPerRound));
      }
      for (int i = 0; i < 3 * kPhasesPerRound; ++i) {
        scans.push_back(Spaced(0.3, 0.8, i, 3 * kPhasesPerRound));
      }
      Shuffle(&lookups, &rng);
      Shuffle(&scans, &rng);
      for (int p = 0; p < kPhasesPerRound; ++p) {
        std::vector<double> phase = {lookups[p], scans[3 * p],
                                     scans[3 * p + 1], scans[3 * p + 2]};
        Shuffle(&phase, &rng);
        for (const double sel : phase) {
          reader_streams_[r].push_back(RangeQuery(&rng, sel, "POLICY=auto"));
        }
      }
    }
  }

  RunStats Run(double seconds, SpanRecorder* spans) override {
    RunStats out;
    out.sim_cost_exact = false;  // Scan sharing attaches by timing.
    Failures fails;
    oracle_.Rebuild(db_->heap(), kKeyColumn, &live_tids_);
    const FileId table = db_->heap().file_id();
    const uint64_t rebuilds_before = compressed_->rebuilds();
    const double communal_before = engine_->TotalTime();

    TableVersionRegistry::ReadLease phase_lease =
        versions_->AcquireRead(table);
    std::atomic<bool> stop{false};
    double excluded_ms = 0.0;  // Oracle rebuilds: the benchmark's own work.
    const Clock::time_point start = Clock::now();
    // Sharing counters are summed per phase: a publish retires the
    // table's parked groups, and their counters with them.
    ScanSharingStats phase_share = sharing_->stats();
    auto add_share_delta = [&] {
      const ScanSharingStats now = sharing_->stats();
      auto delta = [](uint64_t a, uint64_t b) { return a > b ? a - b : 0; };
      out.sharing_delta.pages_fetched +=
          delta(now.pages_fetched, phase_share.pages_fetched);
      out.sharing_delta.chunks_produced +=
          delta(now.chunks_produced, phase_share.chunks_produced);
      out.sharing_delta.chunk_claims +=
          delta(now.chunk_claims, phase_share.chunk_claims);
    };
    // Phase barrier: publish the era the phase wrote (by releasing the
    // phase lease at quiescence), rebuild the oracle on the new snapshot,
    // and pin it for the next phase.
    std::atomic<uint64_t> phase_reads{0};
    std::atomic<uint64_t> phase_tuples{0};
    Clock::time_point phase_start = start;
    auto on_phase_end = [&]() noexcept {
      add_share_delta();
      {
        SpanRecorder::Scope s = spans->Open("write.Publish");
        phase_lease.Release();
      }
      const Clock::time_point o0 = Clock::now();
      const double phase_s = MsBetween(phase_start, o0) / 1e3;
      out.unit_qps.push_back(static_cast<double>(phase_reads.exchange(0)) /
                             phase_s);
      out.unit_tuples_per_s.push_back(
          static_cast<double>(phase_tuples.exchange(0)) / phase_s);
      oracle_.Rebuild(db_->heap(), kKeyColumn, &live_tids_);
      excluded_ms += MsBetween(o0, Clock::now());
      if (MsBetween(start, Clock::now()) - excluded_ms >= seconds * 1e3) {
        stop.store(true);
      } else {
        phase_lease = versions_->AcquireRead(table);
      }
      phase_share = sharing_->stats();
      phase_start = Clock::now();
    };
    std::barrier barrier(static_cast<std::ptrdiff_t>(kReaders + 1),
                         on_phase_end);

    struct ClientOut {
      uint64_t attempted = 0;
      uint64_t write_ops = 0;
      uint64_t tuples = 0;
      uint64_t shared = 0;      ///< kSharedScan reads.
      uint64_t compressed = 0;  ///< kCompressedScan reads (shared extent).
      uint64_t window_stalls = 0;
      std::vector<double> latency_ms;
      std::vector<QueryMetrics> metrics;
    };
    std::vector<ClientOut> clients(kReaders + 1);
    std::vector<std::thread> threads;
    // Client 0: the writer.
    threads.emplace_back([&] {
      ClientOut& co = clients[0];
      SessionOptions so;
      so.max_outstanding = 1;
      so.name = "hotspot_writer";
      Session session(qe_.get(), so);
      Rng rng = Rng(seed_).Fork(1000);
      while (!stop.load()) {
        for (uint32_t w = 0; w < kWritesPerPhase; ++w) {
          std::vector<WriteOp> ops = MakeWriteOps(&rng);
          const uint64_t n = ops.size();
          SpanRecorder::Scope s = spans->Open("client.write");
          QueryResult r = session.Query().Write(writer_.get(), std::move(ops))
                              .Run();
          ++co.attempted;
          if (!r.status.ok()) {
            fails.Fail("hotspot_write: write batch failed: " +
                       r.status.ToString());
            continue;
          }
          co.write_ops += n;
          co.metrics.push_back(r.metrics);
        }
        barrier.arrive_and_wait();
      }
      co.window_stalls = session.window_stalls();
    });
    for (uint32_t rd = 0; rd < kReaders; ++rd) {
      threads.emplace_back([&, rd] {
        ClientOut& co = clients[rd + 1];
        const std::vector<ReadQuery>& stream = reader_streams_[rd];
        SessionOptions so;
        so.max_outstanding = 1;
        so.name = "hotspot_reader";
        Session session(qe_.get(), so);
        size_t pos = 0;
        while (!stop.load()) {
          for (uint32_t i = 0; i < kReadsPerPhase; ++i, ++pos) {
            const ReadQuery& q = stream[pos % stream.size()];
            QuerySpec spec;
            spec.index = &db_->index();
            spec.predicate = KeyRange(q.lo, q.hi);
            spec.use_chooser = true;
            spec.stats = &stats_;
            spec.cost_model = model_.get();
            StreamedRead r = RunStreamed(&session, std::move(spec), spans);
            ++co.attempted;
            // The phase lease pins the snapshot the oracle was built on.
            if (!CheckRead(r.result.status, r.digest,
                           oracle_.Expect(q.lo, q.hi), "hotspot_write read",
                           &fails)) {
              continue;
            }
            co.tuples += r.digest.count;
            phase_reads.fetch_add(1);
            phase_tuples.fetch_add(r.digest.count);
            co.latency_ms.push_back(r.latency_ms);
            co.metrics.push_back(r.result.metrics);
            if (r.result.metrics.kind == PathKind::kSharedScan) ++co.shared;
            if (r.result.metrics.kind == PathKind::kCompressedScan) {
              ++co.compressed;
            }
          }
          barrier.arrive_and_wait();
        }
        co.window_stalls = session.window_stalls();
      });
    }
    for (std::thread& t : threads) t.join();
    out.wall_s = (MsBetween(start, Clock::now()) - excluded_ms) / 1e3;

    double read_sim = 0.0;
    uint64_t compressed_reads = 0;
    for (uint32_t c = 0; c <= kReaders; ++c) {
      ClientOut& co = clients[c];
      out.attempted += co.attempted;
      out.session_window_stalls += co.window_stalls;
      if (c == 0) {
        out.write_ops = co.write_ops;
        out.write_metrics = std::move(co.metrics);
        continue;
      }
      out.reads += co.metrics.size();
      out.tuples += co.tuples;
      compressed_reads += co.compressed;
      out.shared_solo_pages +=
          static_cast<double>(co.shared) * db_->heap().num_pages();
      for (const QueryMetrics& m : co.metrics) read_sim += m.sim_time;
      out.latency_ms.insert(out.latency_ms.end(), co.latency_ms.begin(),
                            co.latency_ms.end());
      out.read_metrics.insert(out.read_metrics.end(), co.metrics.begin(),
                              co.metrics.end());
    }
    // Reads pay their private streams plus the communal one: shared scan
    // passes, publish write-backs and compressed rebuilds.
    const double communal = engine_->TotalTime() - communal_before;
    out.sim_cost_per_query =
        out.reads == 0 ? 0.0
                       : (read_sim + communal) / static_cast<double>(out.reads);
    if (const CompressedExtentRef extent =
            compressed_->Lookup(db_->heap().file_id())) {
      out.shared_solo_pages +=
          static_cast<double>(compressed_reads) * extent->num_pages();
    }
    out.compress_rebuilds = compressed_->rebuilds() - rebuilds_before;
    out.broker_peak_mb =
        static_cast<double>(broker_->peak_total_bytes()) / (1024.0 * 1024.0);
    out.registry = registry_.Snapshot();
    fails.MoveInto(&out);
    return out;
  }

  Engine* engine() override { return engine_.get(); }
  MicroBenchDb* db() override { return db_.get(); }
  QueryEngine* query_engine() override { return qe_.get(); }
  const TableStats* stats() override { return &stats_; }
  const CostModel* cost_model() override { return model_.get(); }
  CompressedExtentMap* compressed() override { return compressed_.get(); }
  const std::vector<ReadQuery>& round() const override {
    return reader_streams_[0];
  }

 private:
  /// One chained batch: inserts into the hot low-key range, updates and
  /// deletes of tuples live in the phase's snapshot.
  std::vector<WriteOp> MakeWriteOps(Rng* rng) {
    std::vector<WriteOp> ops;
    ops.reserve(kOpsPerWrite);
    auto fresh_tuple = [&](int64_t key_hi) {
      Tuple t(10);
      t[0] = Value::Int64(next_id_++);
      t[kKeyColumn] = Value::Int64(rng->UniformInt(0, key_hi));
      for (int c = 2; c < 10; ++c) {
        t[c] = Value::Int64(rng->UniformInt(0, kValueMax));
      }
      return t;
    };
    auto live_tid = [&] {
      return live_tids_[static_cast<size_t>(rng->UniformInt(
          0, static_cast<int64_t>(live_tids_.size()) - 1))];
    };
    for (uint32_t i = 0; i < kOpsPerWrite; ++i) {
      const double r = rng->UniformDouble();
      if (r < 0.5 || live_tids_.empty()) {
        ops.push_back(WriteOp::MakeInsert(fresh_tuple(kValueMax * 3 / 10)));
      } else if (r < 0.75) {
        ops.push_back(WriteOp::MakeUpdate(live_tid(), fresh_tuple(kValueMax)));
      } else {
        ops.push_back(WriteOp::MakeDelete(live_tid()));
      }
    }
    return ops;
  }

  const uint64_t seed_;
  obs::MetricsRegistry registry_;
  obs::TraceCollector trace_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<MicroBenchDb> db_;
  TableStats stats_;
  std::unique_ptr<CostModel> model_;
  std::unique_ptr<TableVersionRegistry> versions_;
  std::unique_ptr<TableWriter> writer_;
  std::unique_ptr<ScanSharingCoordinator> sharing_;
  std::unique_ptr<CompressedExtentMap> compressed_;
  std::unique_ptr<MemoryBroker> broker_;
  std::unique_ptr<QueryEngine> qe_;
  std::vector<std::vector<ReadQuery>> reader_streams_;
  ResultOracle oracle_;
  std::vector<Tid> live_tids_;
  int64_t next_id_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "sweep_solo") return std::make_unique<SweepSolo>(seed);
  if (name == "wire_overload") return std::make_unique<WireOverload>(seed);
  if (name == "hotspot_write") return std::make_unique<HotspotWrite>(seed);
  return nullptr;
}

std::string SelectText(int64_t lo, int64_t hi, const std::string& options) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "SELECT * FROM t WHERE C%d >= %" PRId64 " AND C%d < %" PRId64
                " WITH (%s)",
                kKeyColumn, lo, kKeyColumn, hi, options.c_str());
  return buf;
}

CostModel MakeCostModel(const Engine& engine, const HeapFile& heap) {
  CostModelParams params;
  params.num_tuples = heap.num_tuples();
  params.tuple_size =
      engine.options().page_size /
      std::max<uint64_t>(1, heap.num_tuples() / std::max<size_t>(
                                                    1, heap.num_pages()));
  params.page_size = engine.options().page_size;
  params.rand_cost = engine.options().device.rand_cost;
  params.seq_cost = engine.options().device.seq_cost;
  return CostModel(params);
}

}  // namespace perfbench
