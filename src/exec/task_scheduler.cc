#include "exec/task_scheduler.h"

#include "common/status.h"

namespace smoothscan {

void TaskScheduler::TaskGroup::Wait() {
  latch::UniqueLatch lock(mu_);
  while (remaining_.load(std::memory_order_acquire) != 0) cv_.wait(lock);
}

void TaskScheduler::TaskGroup::Finish() {
  // The lock orders the decrement against a concurrent Wait() so the final
  // notify cannot be missed.
  latch::LatchGuard lock(mu_);
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    cv_.notify_all();
  }
}

TaskScheduler::TaskScheduler(uint32_t num_workers) {
  SMOOTHSCAN_CHECK(num_workers > 0);
  workers_.reserve(num_workers);
  for (uint32_t i = 0; i < num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (uint32_t i = 0; i < num_workers; ++i) {
    workers_[i]->thread = std::thread([this, i] { WorkerLoop(i); });
  }
}

TaskScheduler::~TaskScheduler() {
  {
    latch::LatchGuard lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w->thread.join();
}

std::shared_ptr<TaskScheduler::TaskGroup> TaskScheduler::Submit(
    std::vector<Task> tasks) {
  auto group = std::shared_ptr<TaskGroup>(new TaskGroup(tasks.size()));
  if (tasks.empty()) return group;
  {
    latch::LatchGuard lock(mu_);
    for (auto& task : tasks) {
      workers_[next_deal_]->tasks.emplace_back(group, std::move(task));
      next_deal_ = (next_deal_ + 1) % workers_.size();
    }
  }
  cv_.notify_all();
  return group;
}

bool TaskScheduler::TryTake(uint32_t id,
                            std::pair<std::shared_ptr<TaskGroup>, Task>* out) {
  // Own deque first (front: submission order)...
  Worker& self = *workers_[id];
  if (!self.tasks.empty()) {
    *out = std::move(self.tasks.front());
    self.tasks.pop_front();
    return true;
  }
  // ...then steal from the back of the first busy sibling.
  for (size_t k = 1; k < workers_.size(); ++k) {
    Worker& victim = *workers_[(id + k) % workers_.size()];
    if (!victim.tasks.empty()) {
      *out = std::move(victim.tasks.back());
      victim.tasks.pop_back();
      return true;
    }
  }
  return false;
}

void TaskScheduler::WorkerLoop(uint32_t id) {
  while (true) {
    std::pair<std::shared_ptr<TaskGroup>, Task> item;
    {
      latch::UniqueLatch lock(mu_);
      // Drain remaining work before honoring shutdown, so a group submitted
      // just before destruction still completes. (An explicit wait loop
      // rather than a predicate lambda: TryTake REQUIRES(mu_), and the
      // analysis does not propagate the held latch into lambdas.)
      while (!TryTake(id, &item) && !shutdown_) cv_.wait(lock);
      if (item.second == nullptr) return;  // Shutdown with empty deques.
    }
    item.second();
    item.first->Finish();
  }
}

}  // namespace smoothscan
