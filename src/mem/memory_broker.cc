#include "mem/memory_broker.h"

#include <algorithm>

namespace smoothscan {

void MemoryBroker::UpdatePressureLocked(uint64_t before, uint64_t after) {
  if (!pressured_.load(std::memory_order_relaxed)) {
    if (before <= budget_ && after > budget_) {
      pressured_.store(true, std::memory_order_relaxed);
      pressure_epoch_.fetch_add(1, std::memory_order_relaxed);
    }
  } else if (after <= low_water_) {
    pressured_.store(false, std::memory_order_relaxed);
  }
}

void MemoryBroker::Charge(uint64_t bytes) {
  if (bytes == 0) return;
  latch::LatchGuard lock(mu_);
  const uint64_t before = total_.load(std::memory_order_relaxed);
  const uint64_t after = before + bytes;
  total_.store(after, std::memory_order_relaxed);
  peak_total_ = std::max(peak_total_, after);
  UpdatePressureLocked(before, after);
}

void MemoryBroker::Uncharge(uint64_t bytes) {
  if (bytes == 0) return;
  latch::LatchGuard lock(mu_);
  const uint64_t before = total_.load(std::memory_order_relaxed);
  SMOOTHSCAN_CHECK(before >= bytes);
  const uint64_t after = before - bytes;
  total_.store(after, std::memory_order_relaxed);
  UpdatePressureLocked(before, after);
}

uint64_t MemoryBroker::peak_total_bytes() const {
  latch::LatchGuard lock(mu_);
  return peak_total_;
}

QueryMemoryScope::QueryMemoryScope(MemoryBroker* broker, uint64_t quota_bytes)
    : broker_(broker), quota_(quota_bytes), consumer_(broker) {}

void QueryMemoryScope::Charge(uint64_t bytes) {
  const uint64_t after = consumer_.Charge(bytes);
  uint64_t peak = peak_bytes_.load(std::memory_order_relaxed);
  while (after > peak && !peak_bytes_.compare_exchange_weak(
                             peak, after, std::memory_order_relaxed)) {
  }
  if (after > quota_) breaches_.fetch_add(1, std::memory_order_relaxed);
}

bool QueryMemoryScope::OverQuota() const {
  if (consumer_.bytes() > quota_) return true;
  return broker_ != nullptr && broker_->UnderPressure();
}

}  // namespace smoothscan
