// The layer ledger: per-layer metrics of the traced run. Counters come from
// the traced workload run; timings come from direct calls into each module's
// public functions on the workload's own table and query texts, each wrapped
// in a span. See perfbench/README.md for the metric -> end-to-end map.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <vector>

#include "ledger.h"
#include "workloads.h"

namespace perfbench {

/// Measures every per-layer metric on `workload` after its traced run.
/// `traced` and `untraced` are the two runs of the same seed.
std::vector<Metric> MeasureLayers(Workload* workload, const RunStats& traced,
                                  const RunStats& untraced,
                                  SpanRecorder* spans);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
