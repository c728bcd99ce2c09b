#include "obs/sampler.h"

#include <string>

#include "common/status.h"
#include "mem/memory_broker.h"
#include "sharing/scan_sharing.h"

namespace smoothscan {
namespace obs {

// The sampler header hardcodes the gauge-array size to keep obs/ headers
// light; pin it to the real class count here.
static_assert(kNumMemoryClasses == 5,
              "resize RegistrySampler::g_broker_class_");

RegistrySampler::RegistrySampler(Sources sources) : sources_(sources) {
  SMOOTHSCAN_CHECK(sources_.registry != nullptr);
  MetricsRegistry* r = sources_.registry;
  if (sources_.broker != nullptr) {
    g_broker_total_ = r->gauge("broker.total_bytes");
    g_broker_peak_ = r->gauge("broker.peak_total_bytes");
    g_broker_pressure_epochs_ = r->gauge("broker.pressure_epochs");
    g_broker_under_pressure_ = r->gauge("broker.under_pressure");
    for (size_t i = 0; i < kNumMemoryClasses; ++i) {
      std::string name = "broker.class.";
      name += MemoryClassName(static_cast<MemoryClass>(i));
      name += ".bytes";
      g_broker_class_[i] = r->gauge(name);
    }
  }
  if (sources_.sharing != nullptr) {
    g_sharing_groups_ = r->gauge("sharing.groups");
    g_sharing_consumers_ = r->gauge("sharing.consumers_attached");
    g_sharing_chunks_ = r->gauge("sharing.chunks_produced");
    g_sharing_pages_ = r->gauge("sharing.pages_fetched");
    g_sharing_claims_ = r->gauge("sharing.chunk_claims");
    g_sharing_fanout_x1000_ = r->gauge("sharing.fanout_x1000");
  }
}

RegistrySampler::~RegistrySampler() { Stop(); }

void RegistrySampler::SampleOnce() {
  if (sources_.broker != nullptr) {
    const MemoryBroker& b = *sources_.broker;
    g_broker_total_->Set(static_cast<int64_t>(b.total_bytes()));
    g_broker_peak_->Set(static_cast<int64_t>(b.peak_total_bytes()));
    g_broker_pressure_epochs_->Set(static_cast<int64_t>(b.pressure_epoch()));
    g_broker_under_pressure_->Set(b.UnderPressure() ? 1 : 0);
    for (size_t i = 0; i < kNumMemoryClasses; ++i) {
      g_broker_class_[i]->Set(
          static_cast<int64_t>(b.class_bytes(static_cast<MemoryClass>(i))));
    }
  }
  if (sources_.sharing != nullptr) {
    ScanSharingStats s = sources_.sharing->stats();
    g_sharing_groups_->Set(static_cast<int64_t>(s.groups));
    g_sharing_consumers_->Set(static_cast<int64_t>(s.consumers_attached));
    g_sharing_chunks_->Set(static_cast<int64_t>(s.chunks_produced));
    g_sharing_pages_->Set(static_cast<int64_t>(s.pages_fetched));
    g_sharing_claims_->Set(static_cast<int64_t>(s.chunk_claims));
    // Fan-out: chunks claimed by consumers per chunk produced once, ×1000
    // (8 clients sharing one scan ⇒ ~8000).
    int64_t fanout = s.chunks_produced == 0
                         ? 0
                         : static_cast<int64_t>(s.chunk_claims * 1000 /
                                                s.chunks_produced);
    g_sharing_fanout_x1000_->Set(fanout);
  }
}

void RegistrySampler::Start(std::chrono::milliseconds period) {
  if (thread_.joinable()) return;
  {
    latch::LatchGuard g(mu_);
    stop_ = false;
  }
  thread_ = std::thread([this, period] { Loop(period); });
}

void RegistrySampler::Stop() {
  if (!thread_.joinable()) return;
  {
    latch::LatchGuard g(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  // Close the books: the last sample reflects the stop point, not the last
  // tick boundary.
  SampleOnce();
}

void RegistrySampler::Loop(std::chrono::milliseconds period) {
  latch::UniqueLatch lock(mu_);
  while (!stop_) {
    // Spurious wakeups only cost an early sample; Stop() sets stop_ first.
    cv_.wait_for(lock, period);
    if (stop_) break;
    lock.unlock();
    SampleOnce();
    lock.lock();
  }
}

}  // namespace obs
}  // namespace smoothscan
