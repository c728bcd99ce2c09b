// The benchmark's three workloads. Each builds its own engine stack from a
// seed, runs a timed load through the engine's public client surfaces
// (in-process Session, or net::Server over the in-process Pipe), checks
// every read against the result oracle, and hands back what it measured.
//
//   sweep_solo     one closed-loop Session client, 400K-tuple table (8x the
//                  512-page pool), the paper's selectivity grid under
//                  smooth/DOP 0, smooth/DOP 2 and auto with honest stats.
//   wire_overload  three closed-loop batch connections (window 2) replaying
//                  a drifting POLICY=auto stream under 100x-underestimating
//                  stats, plus one open-loop SLA connection; 60K tuples.
//   hotspot_write  three Session readers (30-80% scans, <=1% lookups, auto)
//                  and one writer publishing INSERT/UPDATE/DELETE batches at
//                  phase barriers; sharing, compressed tier, versions and
//                  memory broker on; 240K tuples (5x the 512-page pool).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "engine/query_engine.h"
#include "ledger.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "plan/table_stats.h"
#include "sharing/scan_sharing.h"
#include "workload/micro_bench.h"

namespace perfbench {

/// One read query of a workload's seeded stream.
struct ReadQuery {
  int64_t lo = 0;
  int64_t hi = 0;
  std::string text;  ///< The same query as wire text.
};

/// Everything one timed run measured.
struct RunStats {
  double wall_s = 0.0;  ///< Measured interval (oracle rebuilds excluded).
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< Errors, refusals and wrong results (writes too).
  std::vector<std::string> errors;  ///< First few failure descriptions.

  // Read queries completed inside the measured interval (batch lane on
  // wire_overload).
  uint64_t reads = 0;
  uint64_t tuples = 0;
  std::vector<double> latency_ms;
  std::vector<smoothscan::QueryMetrics> read_metrics;
  /// Read throughput per measurement unit (a round, a phase or one second);
  /// their medians are the reported rates, robust to a stalled unit.
  std::vector<double> unit_qps;
  std::vector<double> unit_tuples_per_s;

  // SLA lane (wire_overload): latency from due time, generator lateness.
  double sla_period_ms = 0.0;  ///< Open-loop send interval (0: no SLA lane).
  std::vector<double> sla_latency_ms;
  std::vector<double> sla_lag_ms;
  std::vector<smoothscan::QueryMetrics> sla_metrics;

  // Writes (hotspot_write).
  uint64_t write_ops = 0;
  std::vector<smoothscan::QueryMetrics> write_metrics;

  /// Per-query simulated cost of one full round of the seeded stream, in
  /// stream order; every later repetition was checked against it.
  std::vector<double> round_costs;
  /// Mean simulated I/O+CPU per read query.
  double sim_cost_per_query = 0.0;
  /// Whether sim_cost_per_query must repeat bit for bit (false where
  /// scan sharing makes it timing-dependent).
  bool sim_cost_exact = true;

  // Layer counters observed during the run.
  uint64_t session_window_stalls = 0;
  bool has_server = false;
  smoothscan::net::ServerStats server;
  smoothscan::obs::MetricsSnapshot registry;  ///< Empty unless observed.
  smoothscan::ScanSharingStats sharing_delta;
  /// Pages the reads served by a cooperative scan (shared heap or compressed
  /// extent) would have fetched alone.
  double shared_solo_pages = 0.0;
  uint64_t compress_rebuilds = 0;
  double broker_peak_mb = 0.0;
};

/// A workload's engine stack. Setup() builds it (timed by the caller as
/// setup_s), Run() drives the timed load, and the accessors expose the
/// stack to the per-layer measurements afterwards.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds table, index, statistics, compressed extent, engine and server.
  /// `observed` attaches the engine's metrics registry and trace collector.
  virtual void Setup(bool observed) = 0;

  /// Runs the load for about `seconds` (whole rounds or phases), recording
  /// spans into `spans` (which may be disabled).
  virtual RunStats Run(double seconds, SpanRecorder* spans) = 0;

  // --- the stack, for per-layer measurements after Run() ---
  virtual smoothscan::Engine* engine() = 0;
  virtual smoothscan::MicroBenchDb* db() = 0;
  virtual smoothscan::QueryEngine* query_engine() = 0;
  /// Statistics the workload's chooser queries bind (lying on wire_overload).
  virtual const smoothscan::TableStats* stats() = 0;
  virtual const smoothscan::CostModel* cost_model() = 0;
  /// The workload's server, or null.
  virtual smoothscan::net::Server* server() { return nullptr; }
  /// Compressed extents, or null when the workload runs without the tier.
  virtual smoothscan::CompressedExtentMap* compressed() { return nullptr; }
  /// Read queries of one round of the workload's own stream.
  virtual const std::vector<ReadQuery>& round() const = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

/// "SELECT * FROM t WHERE C1 >= lo AND C1 < hi WITH (<options>)".
std::string SelectText(int64_t lo, int64_t hi, const std::string& options);

/// Cost model for a micro-bench table on `engine` (WorkloadDriver's recipe).
smoothscan::CostModel MakeCostModel(const smoothscan::Engine& engine,
                                    const smoothscan::HeapFile& heap);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
