// perfbench_harness: one workload, one seed, one run.
//
//   perfbench_harness --workload <sweep_solo|wire_overload|hotspot_write>
//                     --seed <n> --seconds <s> --trace <0|1>
//                     [--spans-dir <dir>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced (for half the time) and then traced on fresh stacks of the same
// seed, checks that the simulated cost is identical, and prints the
// per-layer ledger. The last
// line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every query was correct and every self-check
// held.

#include <sys/resource.h>
#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "layers.h"
#include "ledger.h"
#include "workloads.h"

using namespace perfbench;

namespace {

// Set-ups per run: at least kMinSetups, and more until kSetupBudgetS of
// set-up time has accumulated, so small stacks get a steady median too.
constexpr int kMinSetups = 7;
constexpr int kMaxSetups = 60;
constexpr double kSetupBudgetS = 1.5;
/// Seed reserved for confirming a claimed gain on data no tuning has seen.
constexpr uint64_t kHoldoutSeed = 9001;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      a->trace = std::strcmp(val, "1") == 0;
    } else if (key == "--spans-dir") {
      a->spans_dir = val;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && MakeWorkload(a->workload, 0) != nullptr &&
         a->seconds > 0.0;
}

/// Aggregate CPU ticks from /proc/stat (zeros where unavailable): all
/// states, and "steal", the time the hypervisor gave to other guests.
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  double v[8] = {};
  if (std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1],
                  &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const double x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

/// Share of CPU time stolen since `since`: the host noise a run was exposed
/// to, printed so that noisy runs can be recognized.
double StealShare(const CpuTicks& since) {
  const CpuTicks now = ReadCpuTicks();
  const double total = now.total - since.total;
  return total > 0.0 ? (now.steal - since.steal) / total : 0.0;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    // JSON has no NaN/inf; a non-finite value only arises on failed runs.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void PrintErrors(const RunStats& run) {
  for (const std::string& e : run.errors) std::printf("ERROR: %s\n", e.c_str());
}

double PerSecond(double n, double seconds) {
  return seconds > 0.0 ? n / seconds : 0.0;
}

/// Untraced run: end-to-end metrics.
int RunEndToEnd(const Args& args) {
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  double setup_total = 0.0;
  while (static_cast<int>(setup_s.size()) < kMinSetups ||
         (setup_total < kSetupBudgetS &&
          static_cast<int>(setup_s.size()) < kMaxSetups)) {
    w.reset();  // One stack alive at a time.
    w = MakeWorkload(args.workload, args.seed);
    const Clock::time_point t0 = Clock::now();
    w->Setup(/*observed=*/false);
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
    setup_total += setup_s.back();
  }
  SpanRecorder off(false);
  const CpuTicks ticks = ReadCpuTicks();
  const RunStats run = w->Run(args.seconds, &off);
  std::printf("host: %.1f%% of CPU time stolen by other guests during the "
              "run\n",
              StealShare(ticks) * 100.0);
  PrintErrors(run);

  bool valid = true;
  const TailPercentile tail = HighestSupportedPercentile(run.latency_ms);
  std::printf("reads: %" PRIu64 " in %.3f s (%.3f/s overall, median of %zu "
              "units reported); latency tail p%g = %.3f ms (n=%zu, %zu "
              "beyond)\n",
              run.reads, run.wall_s,
              PerSecond(static_cast<double>(run.reads), run.wall_s),
              run.unit_qps.size(), tail.q * 100.0, tail.value, tail.n,
              tail.beyond);
  if (SamplesBeyond(run.latency_ms.size(), 0.95) < 10) {
    std::printf("INVALID: fewer than 10 latency samples beyond p95\n");
    valid = false;
  }
  const double failed_share =
      run.attempted == 0
          ? 1.0
          : static_cast<double>(run.failed) /
                static_cast<double>(run.attempted);
  std::printf("failed_share: %.6f ratio (%" PRIu64 " of %" PRIu64 ")\n",
              failed_share, run.failed, run.attempted);
  if (!run.sla_latency_ms.empty()) {
    const TailPercentile sla = HighestSupportedPercentile(run.sla_latency_ms);
    const double lag95 = Percentile(run.sla_lag_ms, 0.95);
    std::printf("sla_p50_ms: %.4f ms\nsla_p95_ms: %.4f ms (n=%zu; tail p%g = "
                "%.3f ms)\ndriver.sla_lag_ms_p95: %.4f ms\n",
                Percentile(run.sla_latency_ms, 0.5),
                Percentile(run.sla_latency_ms, 0.95), sla.n, sla.q * 100.0,
                sla.value, lag95);
    // The open loop is only meaningful while the generator keeps its own
    // schedule: a wake-up later than one period means the generator, not
    // the server, fell behind.
    if (lag95 > run.sla_period_ms) {
      std::printf("INVALID: SLA generator fell behind its schedule\n");
      valid = false;
    }
  }
  if (!run.write_metrics.empty()) {
    std::printf("write_ops_per_s: %.3f 1/s (%" PRIu64 " ops)\n",
                PerSecond(static_cast<double>(run.write_ops), run.wall_s),
                run.write_ops);
  }
  int paths[smoothscan::kNumPathKinds] = {};
  for (const smoothscan::QueryMetrics& m : run.read_metrics) {
    ++paths[static_cast<int>(m.kind)];
  }
  std::printf("paths run:");
  for (int k = 0; k < smoothscan::kNumPathKinds; ++k) {
    if (paths[k] == 0) continue;
    const auto kind = static_cast<smoothscan::PathKind>(k);
    std::printf(" %s=%d", smoothscan::PathKindToString(kind), paths[k]);
  }
  std::printf("\n");
  if (run.sim_cost_exact) {
    std::printf("sim_cost_per_query repeats exactly: %zu stream queries "
                "checked across every repetition\n",
                run.round_costs.size());
  }

  std::vector<Metric> metrics = {
      {"setup_s", "s", Median(setup_s)},
      {"qps", "1/s", Median(run.unit_qps)},
      {"tuples_per_s", "1/s", Median(run.unit_tuples_per_s)},
      {"latency_p50_ms", "ms", Percentile(run.latency_ms, 0.5)},
      {"latency_p95_ms", "ms", Percentile(run.latency_ms, 0.95)},
      {"sim_cost_per_query", "sim", run.sim_cost_per_query},
      {"peak_rss_mb", "MB", PeakRssMb()},
  };
  for (const Metric& m : metrics) {
    std::printf("%s: %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = valid && run.failed == 0;
  PrintJson(correct, run.attempted, run.failed, metrics);
  return correct ? 0 : 1;
}

/// Traced run: invariance self-checks plus the per-layer ledger.
int RunTraced(const Args& args) {
  RunStats untraced;
  {
    std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
    w->Setup(/*observed=*/false);
    SpanRecorder off(false);
    untraced = w->Run(args.seconds / 2, &off);
  }
  PrintErrors(untraced);
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  w->Setup(/*observed=*/true);
  SpanRecorder spans(true);
  const RunStats traced = w->Run(args.seconds, &spans);
  PrintErrors(traced);

  bool invariant = true;
  if (traced.sim_cost_exact) {
    // Observability never changes simulated cost, and a seed always
    // reproduces it: the traced stack must repeat the untraced stack's
    // per-query costs bit for bit.
    invariant = traced.round_costs.size() == untraced.round_costs.size();
    for (size_t i = 0; invariant && i < traced.round_costs.size(); ++i) {
      invariant = traced.round_costs[i] == untraced.round_costs[i];
    }
    std::printf("invariance: sim_cost_per_query untraced %.17g traced %.17g "
                "(%zu stream queries) %s\n",
                untraced.sim_cost_per_query, traced.sim_cost_per_query,
                traced.round_costs.size(), invariant ? "identical" : "DIFFER");
  }
  const std::vector<Metric> metrics =
      MeasureLayers(w.get(), traced, untraced, &spans);
  for (const Metric& m : metrics) {
    std::printf("%-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  const std::vector<Span> all = spans.spans();
  std::printf("\nlayer ledger (self time by span, %zu spans):\n", all.size());
  std::printf("%-44s %10s %14s %14s\n", "span", "calls", "total_ms",
              "self_ms");
  for (const SelfTime& t : ComputeSelfTimes(all)) {
    std::printf("%-44s %10" PRIu64 " %14.3f %14.3f\n", t.name.c_str(),
                t.calls, t.total_us / 1e3, t.self_us / 1e3);
  }
  const std::string path = args.spans_dir + "/spans_" + args.workload + "_" +
                           std::to_string(args.seed) + ".json";
  if (spans.WriteJson(path)) std::printf("spans written to %s\n", path.c_str());

  const uint64_t failed = untraced.failed + traced.failed;
  const bool correct = invariant && failed == 0;
  PrintJson(correct, untraced.attempted + traced.attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans-dir <dir>]\n");
    return 2;
  }
  std::printf("perfbench: workload=%s seed=%" PRIu64 " seconds=%g trace=%d "
              "(holdout seed for gain claims: %" PRIu64 ")\n",
              args.workload.c_str(), args.seed, args.seconds,
              args.trace ? 1 : 0, kHoldoutSeed);
  std::printf("provenance: nproc=%ld compiler=%s build_type=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);
  return args.trace ? RunTraced(args) : RunEndToEnd(args);
}
