#pragma once

#include <cstddef>
#include <functional>

namespace fexiot {
namespace parallel {

/// \brief Process-wide data parallelism over a shared lazily-initialized
/// ThreadPool.
///
/// Library hot loops (SpMM output rows, k-means assignment, t-SNE gradient
/// rows, contrastive pair batches, corpus generation) call parallel::For
/// instead of owning pools. A nested-parallelism guard keeps the scheme
/// composable with callers that already parallelize at a coarser grain:
/// when For/ForRange is invoked from *any* ThreadPool worker thread (e.g.
/// inside a federated per-client training task running on the simulator's
/// pool), the loop body runs serially inline, so per-client tasks never
/// oversubscribe the machine with a second level of workers.
///
/// Determinism contract: For/ForRange only change *which thread* executes
/// an index, never the arithmetic performed for it. Callers that keep
/// per-index writes disjoint and reduce in index order get bit-identical
/// results for every thread count (tested in test_kernels.cc).

/// \brief Number of workers in the global pool (creates it on first use).
/// Default size: the FEXIOT_THREADS env var if set, else hardware
/// concurrency.
size_t NumThreads();

/// \brief Resizes the global pool (0 = default sizing). Intended for tests
/// and tools; must not race with concurrent For calls.
void SetThreads(size_t n);

/// \brief Runs fn(i) for i in [0, n) across the global pool
/// (ThreadPool::ParallelFor) and waits.
///
/// Serial fallbacks: n <= 1, a single-worker pool, or a caller already on
/// a ThreadPool worker thread (the oversubscription guard). Exceptions: the
/// first exception thrown by fn is rethrown in the caller; scheduling of
/// further indices stops, though indices already in flight still complete.
/// Concurrent For calls from distinct caller threads are safe and tracked
/// independently.
void For(size_t n, const std::function<void(size_t)>& fn);

/// \brief Row-range variant: partitions [0, n) into at most NumThreads()
/// contiguous shards and runs fn(begin, end) per shard. Useful when
/// per-index dispatch would dominate (tight per-row loops). The shard
/// boundaries depend only on n and the pool size.
void ForRange(size_t n, const std::function<void(size_t, size_t)>& fn);

}  // namespace parallel
}  // namespace fexiot
