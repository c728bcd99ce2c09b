// TaskScheduler: the fixed worker pool behind morsel-driven parallel
// execution. Each worker owns a deque of tasks; Submit() deals a task group
// round-robin across the deques, workers pop their own deque from the front
// and — when it runs dry — steal from the back of a sibling's deque, so an
// uneven group (or several concurrent groups) still keeps every core busy.
//
// Determinism contract: the scheduler decides *where and when* tasks run,
// never *what they compute*. Parallel operators keep their results and their
// simulated-time accounting a pure function of the task (morsel) list — see
// parallel_scan.h — so any interleaving the scheduler produces yields the
// same answer.

#ifndef SMOOTHSCAN_EXEC_TASK_SCHEDULER_H_
#define SMOOTHSCAN_EXEC_TASK_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/latch_rank.h"
#include "common/thread_annotations.h"

namespace smoothscan {

class TaskScheduler {
 public:
  using Task = std::function<void()>;

  /// Completion handle of one Submit() call.
  class TaskGroup {
   public:
    /// Blocks until every task of the group has finished.
    void Wait() EXCLUDES(mu_);

   private:
    friend class TaskScheduler;
    explicit TaskGroup(size_t n) : remaining_(n) {}
    void Finish() EXCLUDES(mu_);

    std::atomic<size_t> remaining_;
    /// Leaf latch: held only around the final-notify ordering, with nothing
    /// else acquired under it.
    latch::Latch mu_{latch::LatchRank::kTaskGroup, "TaskGroup::mu_"};
    std::condition_variable_any cv_;
  };

  /// Spawns `num_workers` threads (at least 1).
  explicit TaskScheduler(uint32_t num_workers);
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  uint32_t num_workers() const { return static_cast<uint32_t>(workers_.size()); }

  /// Enqueues `tasks` as one group, dealt round-robin across worker deques.
  /// Returns immediately; wait on the group for completion.
  std::shared_ptr<TaskGroup> Submit(std::vector<Task> tasks) EXCLUDES(mu_);

 private:
  struct Worker {
    std::deque<std::pair<std::shared_ptr<TaskGroup>, Task>> tasks;
    std::thread thread;
  };

  void WorkerLoop(uint32_t id);
  /// Pops own work from the front, or steals from the back of a sibling.
  bool TryTake(uint32_t id, std::pair<std::shared_ptr<TaskGroup>, Task>* out)
      REQUIRES(mu_);

  // One latch guards all deques: contention is per-task (morsels are
  // thousands of tuples each), far off any hot path. The stealing *policy*
  // stays per-deque; the latch is an implementation shortcut.
  latch::Latch mu_{latch::LatchRank::kScheduler, "TaskScheduler::mu_"};
  std::condition_variable_any cv_;
  /// The vector itself is fixed after construction; the `tasks` deques
  /// inside are guarded by `mu_` — accessed only via TryTake/Submit.
  std::vector<std::unique_ptr<Worker>> workers_;
  size_t next_deal_ GUARDED_BY(mu_) = 0;
  bool shutdown_ GUARDED_BY(mu_) = false;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_EXEC_TASK_SCHEDULER_H_
