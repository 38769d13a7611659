#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace fexiot {

/// \brief Fixed-size worker pool used to parallelize per-client federated
/// training rounds and embarrassingly parallel dataset generation.
///
/// Concurrency contract (pinned down by the test_common stress tests):
///  - Submit/Wait/ParallelFor may be called concurrently from any number
///    of threads. Wait() blocks until *all* tasks submitted so far (by any
///    thread) have completed; ParallelFor waits only for its own indices.
///  - A task submitted via Submit that throws is caught in the worker,
///    logged, and dropped; it still counts as completed, so Wait() never
///    wedges and the process never std::terminate()s.
///  - ParallelFor rethrows the first exception thrown by fn in the calling
///    thread and stops handing out further indices (indices already in
///    flight still run).
///  - ParallelFor called from a worker thread (of this or any other pool)
///    runs inline serially: workers blocked on their own shards could
///    leave no thread to run them, and nested fan-out oversubscribes the
///    machine.
class ThreadPool {
 public:
  /// Creates \p num_threads workers (defaults to hardware concurrency).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution. Exceptions escaping the task are
  /// logged and swallowed (see class comment).
  void Submit(std::function<void()> task);

  /// Blocks until all submitted tasks have completed.
  void Wait();

  /// \brief Runs fn(i) for i in [0, n) across the pool and waits for
  /// those indices only. Serial inline when called from any pool's worker
  /// thread.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  size_t num_threads() const { return workers_.size(); }

  /// \brief True when the calling thread is a worker of *any* ThreadPool.
  /// Used as the nested-parallelism guard by parallel::For.
  static bool OnWorkerThread();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_cv_;
  std::condition_variable done_cv_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
};

}  // namespace fexiot
