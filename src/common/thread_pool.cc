#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "common/logging.h"

namespace fexiot {

namespace {
thread_local bool tls_on_worker_thread = false;
}  // namespace

bool ThreadPool::OnWorkerThread() { return tls_on_worker_thread; }

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  task_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (OnWorkerThread() || workers_.size() <= 1) {
    // Nested call from a worker: workers blocked on their own shards can
    // leave no thread to run them, and nested fan-out oversubscribes the
    // machine, so run inline. Single-worker pools gain nothing from
    // dispatch either.
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Completion is a local latch over this call's own tasks, not Wait(),
  // which would also wait for every task other threads submitted.
  const size_t shards = std::min(n, workers_.size());
  std::atomic<size_t> next{0};
  std::mutex mutex;
  std::condition_variable done_cv;
  size_t remaining = shards;
  std::exception_ptr first_error;
  for (size_t s = 0; s < shards; ++s) {
    Submit([&] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= n) break;
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex);
          if (first_error == nullptr) {
            first_error = std::current_exception();
          }
          next.store(n);  // stop handing out further indices
        }
      }
      std::lock_guard<std::mutex> lock(mutex);
      if (--remaining == 0) done_cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mutex);
  done_cv.wait(lock, [&] { return remaining == 0; });
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

void ThreadPool::WorkerLoop() {
  tls_on_worker_thread = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_cv_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    try {
      task();
    } catch (const std::exception& e) {
      FEXIOT_LOG(Error) << "ThreadPool task threw: " << e.what();
    } catch (...) {
      FEXIOT_LOG(Error) << "ThreadPool task threw a non-std exception";
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace fexiot
