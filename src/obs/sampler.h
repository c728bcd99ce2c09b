// RegistrySampler: bridges pull-style subsystem snapshots (MemoryBroker
// totals/per-class bytes/pressure, scan-sharing coordinator fan-out) into
// registry gauges, either on demand (SampleOnce, e.g. right before a
// report snapshot) or from a small background thread at a fixed period
// (the WorkloadDriver's periodic snapshot reporter).
//
// Everything here is read-only against the sampled subsystems: the sampler
// reads broker byte totals and coordinator stats and writes gauges — it
// never sheds, spills, or bills anything (lint: obs-accounting).
//
// Latching: the sampler's own latch (LatchRank::kObsSampler = 115) exists
// for the tick condition variable. It ranks *above* kBroker (110) and
// kObsMetrics (105) because a tick reads broker snapshots and writes
// registry gauges while holding it.

#ifndef SMOOTHSCAN_OBS_SAMPLER_H_
#define SMOOTHSCAN_OBS_SAMPLER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <thread>

#include "common/latch_rank.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace smoothscan {

class MemoryBroker;
class ScanSharingCoordinator;

namespace obs {

class RegistrySampler {
 public:
  struct Sources {
    MetricsRegistry* registry = nullptr;  ///< Required.
    const MemoryBroker* broker = nullptr;
    const ScanSharingCoordinator* sharing = nullptr;
  };

  explicit RegistrySampler(Sources sources);
  ~RegistrySampler();
  RegistrySampler(const RegistrySampler&) = delete;
  RegistrySampler& operator=(const RegistrySampler&) = delete;

  /// One synchronous pull of every attached source into registry gauges.
  void SampleOnce();

  /// Spawns the periodic sampling thread (idempotent). First tick fires
  /// after one period; Stop() (or the destructor) both samples once more,
  /// so the final snapshot is never staler than the stop point.
  void Start(std::chrono::milliseconds period);
  void Stop();

 private:
  void Loop(std::chrono::milliseconds period);

  const Sources sources_;
  // Cached gauge handles (registered in the constructor, so SampleOnce is
  // pure stores).
  Gauge* g_broker_total_ = nullptr;
  Gauge* g_broker_peak_ = nullptr;
  Gauge* g_broker_pressure_epochs_ = nullptr;
  Gauge* g_broker_under_pressure_ = nullptr;
  Gauge* g_broker_class_[5] = {};
  Gauge* g_sharing_groups_ = nullptr;
  Gauge* g_sharing_consumers_ = nullptr;
  Gauge* g_sharing_chunks_ = nullptr;
  Gauge* g_sharing_pages_ = nullptr;
  Gauge* g_sharing_claims_ = nullptr;
  Gauge* g_sharing_fanout_x1000_ = nullptr;

  latch::Latch mu_{latch::LatchRank::kObsSampler, "RegistrySampler::mu_"};
  std::condition_variable_any cv_;
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread thread_;
};

}  // namespace obs
}  // namespace smoothscan

#endif  // SMOOTHSCAN_OBS_SAMPLER_H_
