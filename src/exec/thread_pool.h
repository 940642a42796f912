#ifndef IDLOG_EXEC_THREAD_POOL_H_
#define IDLOG_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace idlog {

/// A small fixed-size pool for the parallel stratum executor.
///
/// `size` is the total parallelism of a Run() call: the pool spawns
/// size-1 persistent workers and the calling thread executes tasks too,
/// so SetThreads(4) means four threads doing rule evaluations, not
/// five. Run() is a barrier — it returns only after every submitted
/// task finished — which is exactly the shape a fixpoint round needs
/// (no task of round r+1 may start before round r committed).
///
/// Error reporting goes through whatever state the task closure writes
/// (the stratum executor records a Status per task). A task that throws
/// anyway is contained: the exception is swallowed at the pool boundary
/// so it can neither terminate the process nor wedge the batch
/// accounting — submitters that may throw should catch inside the task
/// and record a Status, as RunRoundTasks does. One Run() at a time per
/// pool: the engine that owns the pool evaluates one stratum at a time,
/// so there is no re-entrancy.
class ThreadPool {
 public:
  explicit ThreadPool(int size);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism (workers + the calling thread).
  int size() const { return size_; }

  /// Executes every task, on workers and on the calling thread, and
  /// returns when all have finished.
  ///
  /// Claim-order invariant: tasks are *claimed* strictly in index
  /// order — every thread takes `tasks[next_task_++]` under the pool
  /// mutex, so no task is claimed before all lower-indexed tasks have
  /// been claimed, and the unit test pins it. Claim order is NOT
  /// completion order: a claimed task may finish after arbitrarily many
  /// higher-indexed ones, so callers needing determinism must still
  /// merge results by task index afterwards, and must not assume a
  /// lower-indexed task observed any shared state earlier than a
  /// higher-indexed one.
  void Run(std::vector<std::function<void()>> tasks);

  /// Test-only seam: `obs` is invoked with each task's index at claim
  /// time, under the pool mutex (so observed order == claim order).
  /// Pass nullptr to remove. Not for production use — the callback
  /// runs inside the pool's critical section.
  void SetClaimObserverForTest(std::function<void(size_t)> obs) {
    std::lock_guard<std::mutex> lock(mu_);
    claim_observer_ = std::move(obs);
  }

 private:
  void WorkerLoop();
  /// Pops and runs queued tasks until the queue drains; used by both
  /// workers and the Run() caller.
  void DrainQueue(std::unique_lock<std::mutex>* lock);

  const int size_;
  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  std::vector<std::function<void()>> queue_;
  size_t next_task_ = 0;       ///< Index of the next unclaimed task.
  std::function<void(size_t)> claim_observer_;  ///< Test-only.
  size_t tasks_running_ = 0;   ///< Claimed but not yet finished.
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace idlog

#endif  // IDLOG_EXEC_THREAD_POOL_H_
