#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/parallel.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"

namespace fexiot {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad shape");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad shape");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad shape");
}

TEST(Status, ReturnNotOkMacro) {
  auto fails = []() -> Status {
    FEXIOT_RETURN_NOT_OK(Status::NotFound("missing"));
    return Status::OK();
  };
  EXPECT_EQ(fails().code(), StatusCode::kNotFound);
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(0), 42);
}

TEST(Result, HoldsError) {
  Result<int> r(Status::Internal("boom"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(2);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.UniformInt(uint64_t{7});
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, NormalMoments) {
  Rng rng(3);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, DirichletSumsToOne) {
  Rng rng(4);
  for (double alpha : {0.1, 1.0, 10.0}) {
    const std::vector<double> p = rng.Dirichlet(alpha, 5);
    double sum = 0.0;
    for (double x : p) {
      EXPECT_GE(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Rng, DirichletConcentration) {
  // Small alpha -> spiky distributions (high max); large alpha -> flat.
  Rng rng(5);
  double max_small = 0.0, max_large = 0.0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    auto p1 = rng.Dirichlet(0.1, 10);
    auto p2 = rng.Dirichlet(10.0, 10);
    max_small += *std::max_element(p1.begin(), p1.end());
    max_large += *std::max_element(p2.begin(), p2.end());
  }
  EXPECT_GT(max_small / trials, max_large / trials + 0.2);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(6);
  int count2 = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.Categorical({1.0, 1.0, 8.0}) == 2) ++count2;
  }
  EXPECT_NEAR(static_cast<double>(count2) / n, 0.8, 0.03);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(7);
  const auto idx = rng.SampleWithoutReplacement(20, 10);
  EXPECT_EQ(idx.size(), 10u);
  std::set<size_t> s(idx.begin(), idx.end());
  EXPECT_EQ(s.size(), 10u);
  for (size_t v : idx) EXPECT_LT(v, 20u);
}

TEST(Rng, SampleSortedIsAscendingDistinctAndReproducible) {
  // Floyd's sampler: a small ascending cohort out of a huge population,
  // reproducible from the seed; k >= n returns the whole population.
  Rng rng(11);
  const std::vector<uint64_t> v = rng.SampleSorted(uint64_t{1} << 40, 50);
  ASSERT_EQ(v.size(), 50u);
  for (size_t i = 1; i < v.size(); ++i) EXPECT_LT(v[i - 1], v[i]);
  EXPECT_LT(v.back(), uint64_t{1} << 40);
  Rng again(11);
  EXPECT_EQ(again.SampleSorted(uint64_t{1} << 40, 50), v);
  Rng all(3);
  EXPECT_EQ(all.SampleSorted(5, 9), (std::vector<uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(all.SampleSorted(5, 0).empty());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(8);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  rng.Shuffle(&v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 7u);
}

TEST(StringUtil, SplitAndJoin) {
  const auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Join({"x", "y", "z"}, "-"), "x-y-z");
}

TEST(StringUtil, SplitWhitespace) {
  const auto parts = SplitWhitespace("  hello   world\t!\n");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "hello");
  EXPECT_EQ(parts[2], "!");
}

TEST(StringUtil, CaseAndTrim) {
  EXPECT_EQ(ToLower("HeLLo"), "hello");
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_TRUE(Contains("foobar", "oba"));
  EXPECT_FALSE(Contains("foobar", "baz"));
}

TEST(StringUtil, HashStable) {
  EXPECT_EQ(HashString("light"), HashString("light"));
  EXPECT_NE(HashString("light"), HashString("lamp"));
}

TEST(StringUtil, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer", "22"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(ThreadPool, ParallelForCoversAll) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ParallelFor's completion covers its own indices only: a task another
// caller submitted to the same pool, still blocked, must not hold it up.
TEST(ThreadPool, ParallelForWaitsOnlyForItsOwnIndices) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> blocker_done{false};
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait_for(lock, std::chrono::seconds(2), [&] { return release; });
    blocker_done = true;
  });
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelFor(64, [&](size_t i) { hits[i].fetch_add(1); });
  EXPECT_FALSE(blocker_done.load())
      << "ParallelFor waited for a task it did not submit";
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  pool.Wait();
  EXPECT_TRUE(blocker_done.load());
}

TEST(ThreadPool, SubmitAndWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 50);
}

// Stress: many producer threads hammer Submit and Wait concurrently; the
// pool must neither drop nor double-run tasks (run under TSAN in CI).
TEST(ThreadPool, ConcurrentSubmitAndWaitFromManyThreads) {
  ThreadPool pool(4);
  constexpr int kProducers = 6;
  constexpr int kTasksEach = 200;
  std::atomic<int> counter{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kTasksEach; ++i) {
        pool.Submit([&] { counter.fetch_add(1, std::memory_order_relaxed); });
        if (i % 64 == 0) pool.Wait();
      }
      pool.Wait();
    });
  }
  for (auto& t : producers) t.join();
  pool.Wait();
  EXPECT_EQ(counter.load(), kProducers * kTasksEach);
}

// A throwing Submit task is logged and dropped; it still counts as
// completed so Wait() does not wedge and later tasks run normally.
TEST(ThreadPool, ThrowingSubmitTaskDoesNotWedgeWait) {
  ThreadPool pool(2);
  std::atomic<int> after{0};
  pool.Submit([] { throw std::runtime_error("task boom"); });
  pool.Wait();  // must return
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&] { after.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(after.load(), 10);
}

// ParallelFor propagates the first body exception to the caller and the
// pool stays usable afterwards.
TEST(ThreadPool, ParallelForRethrowsFirstException) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [&](size_t i) {
                         if (i == 17) throw std::runtime_error("body boom");
                       }),
      std::runtime_error);
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelFor(64, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// The oversubscription guard: ParallelFor from a worker runs inline, so
// nesting completes instead of deadlocking on workers that wait for
// their own pool.
TEST(ThreadPool, NestedParallelForRunsInlineOnWorkers) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(16 * 8);
  pool.ParallelFor(16, [&](size_t outer) {
    EXPECT_TRUE(ThreadPool::OnWorkerThread());
    pool.ParallelFor(8, [&](size_t inner) {
      hits[outer * 8 + inner].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
}

TEST(ParallelFacade, ForMatchesSerialAndHonorsSetThreads) {
  parallel::SetThreads(3);
  std::vector<int> out(257, 0);
  parallel::For(out.size(), [&](size_t i) { out[i] = static_cast<int>(i); });
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<int>(i));
  }
  EXPECT_EQ(parallel::NumThreads(), 3u);
  parallel::SetThreads(0);
}

TEST(ParallelFacade, ForRethrowsAndStaysUsable) {
  parallel::SetThreads(2);
  EXPECT_THROW(parallel::For(50,
                             [&](size_t i) {
                               if (i == 3) {
                                 throw std::runtime_error("facade boom");
                               }
                             }),
               std::runtime_error);
  std::vector<int> hits(32, 0);
  parallel::For(hits.size(), [&](size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
  parallel::SetThreads(0);
}

TEST(Rng, ForkIndependent) {
  Rng a(9);
  Rng b = a.Fork();
  // Forked stream differs from parent's continued stream.
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(Rng, ForkAtIsPureAndOrderIndependent) {
  // ForkAt is a pure function of (state, index): the same child comes back
  // no matter how many children were derived before it or in what order,
  // and the parent stream never advances.
  Rng a(10), b(10);
  Rng a_probe(10);
  const uint64_t parent_next = a_probe.NextU64();

  std::vector<uint64_t> forward, backward;
  for (uint64_t i = 0; i < 8; ++i) forward.push_back(a.ForkAt(i).NextU64());
  for (uint64_t i = 8; i-- > 0;) backward.push_back(b.ForkAt(i).NextU64());
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(forward[i], backward[7 - i]);

  // Parent unaffected: its next draw is what it would have been with no
  // forking at all.
  EXPECT_EQ(a.NextU64(), parent_next);
  EXPECT_EQ(b.NextU64(), parent_next);
}

TEST(Rng, ForkAtChildrenDistinct) {
  Rng parent(11);
  std::set<uint64_t> first_draws;
  for (uint64_t i = 0; i < 256; ++i) {
    first_draws.insert(parent.ForkAt(i).NextU64());
  }
  EXPECT_EQ(first_draws.size(), 256u);
}

TEST(Rng, ForkAtStreamsUncorrelated) {
  // Adjacent children, and child-vs-parent, show no linear correlation:
  // |Pearson r| over 4096 uniform draws stays in the small-sample noise
  // band (~1/sqrt(n) ≈ 0.016; allow 4 sigma).
  Rng parent(12);
  auto correlation = [](Rng x, Rng y) {
    const int n = 4096;
    double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
    for (int i = 0; i < n; ++i) {
      const double u = x.Uniform();
      const double v = y.Uniform();
      sx += u; sy += v; sxx += u * u; syy += v * v; sxy += u * v;
    }
    const double cov = sxy / n - (sx / n) * (sy / n);
    const double vx = sxx / n - (sx / n) * (sx / n);
    const double vy = syy / n - (sy / n) * (sy / n);
    return cov / std::sqrt(vx * vy);
  };
  EXPECT_LT(std::fabs(correlation(parent.ForkAt(0), parent.ForkAt(1))), 0.07);
  EXPECT_LT(std::fabs(correlation(parent.ForkAt(41), parent.ForkAt(42))),
            0.07);
  EXPECT_LT(std::fabs(correlation(parent, parent.ForkAt(7))), 0.07);
}

}  // namespace
}  // namespace fexiot
