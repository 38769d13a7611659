#include "common/parallel.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "common/thread_pool.h"

namespace fexiot {
namespace parallel {
namespace {

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;  // guarded by g_pool_mutex
size_t g_requested_threads = 0;      // 0 = default sizing

size_t DefaultThreads() {
  const char* env = std::getenv("FEXIOT_THREADS");
  if (env != nullptr) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 0;  // ThreadPool(0) falls back to hardware concurrency
}

ThreadPool& GlobalPool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (g_pool == nullptr) {
    const size_t n =
        g_requested_threads != 0 ? g_requested_threads : DefaultThreads();
    g_pool = std::make_unique<ThreadPool>(n);
  }
  return *g_pool;
}

}  // namespace

size_t NumThreads() { return GlobalPool().num_threads(); }

void SetThreads(size_t n) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  g_pool.reset();  // joins old workers
  g_requested_threads = n;
}

void For(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // Oversubscription guard: a caller already running on a pool worker
  // (global or any other pool, e.g. the federated simulator's) executes
  // the loop inline instead of fanning out a second level of tasks.
  if (n == 1 || ThreadPool::OnWorkerThread()) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  GlobalPool().ParallelFor(n, fn);
}

void ForRange(size_t n, const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  // The worker guard goes first, as in For: a pool worker never takes the
  // global pool's mutex.
  const size_t shards =
      ThreadPool::OnWorkerThread() ? 1 : std::min(n, NumThreads());
  if (shards <= 1) {
    fn(0, n);
    return;
  }
  For(shards, [n, shards, &fn](size_t s) {
    const size_t begin = s * n / shards;
    const size_t end = (s + 1) * n / shards;
    if (begin < end) fn(begin, end);
  });
}

}  // namespace parallel
}  // namespace fexiot
