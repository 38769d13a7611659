// SpMM trajectory bench: CSR sparse propagation kernel vs the dense
// MatMul path it replaces, swept over matrix size x density x thread
// count at a GNN-shaped right-hand side (n x n times n x 32). Prints a
// table and writes a JSON perf record (BENCH_spmm.json by default, or the
// path in argv[1]): seconds, effective GF/s, dense/sparse speedup and the
// steady-state bytes each representation holds. The speedup column doubles
// as a density-threshold analysis — the crossover density where sparse
// stops paying is visible per size. Both kernels add the same nonzero
// terms in the same order, so the bench exits 1 unless every
// configuration's products are bit-identical (max_abs_diff == 0).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"

namespace fexiot {
namespace bench {
namespace {

struct SpmmRecord {
  size_t size = 0;
  double density = 0.0;  // requested off-diagonal fill
  size_t threads = 0;
  size_t nnz = 0;
  double dense_seconds = 0.0;
  double sparse_seconds = 0.0;
  double dense_gflops = 0.0;   // dense flops / dense time
  double sparse_gflops = 0.0;  // effective (2 nnz m) flops / sparse time
  double speedup = 0.0;        // dense_seconds / sparse_seconds
  size_t dense_bytes = 0;
  size_t sparse_bytes = 0;
  double max_abs_diff = 0.0;
};

template <typename Fn>
double TimeKernel(const Fn& fn, int reps) {
  fn();  // warm-up (page faults, pool spin-up, workspace growth)
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    fn();
    samples.push_back(sw.ElapsedSeconds());
  }
  return MedianSeconds(std::move(samples));
}

/// Propagation-shaped sparse matrix: unit diagonal (self loops) plus the
/// requested fraction of random off-diagonal entries.
Matrix RandomPropagation(size_t n, double density, Rng* rng) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m.At(i, i) = 1.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i != j && rng->Uniform() < density) {
        m.At(i, j) = rng->Normal(0.0, 1.0);
      }
    }
  }
  return m;
}

SpmmRecord BenchConfig(size_t n, double density, size_t threads, Rng* rng) {
  constexpr size_t kCols = 32;
  SpmmRecord rec;
  rec.size = n;
  rec.density = density;
  rec.threads = threads;

  const Matrix a_dense = RandomPropagation(n, density, rng);
  const Matrix b = Matrix::RandomNormal(n, kCols, 1.0, rng);
  const CsrMatrix a = CsrMatrix::FromDense(a_dense);
  rec.nnz = a.nnz();
  rec.dense_bytes = a_dense.size() * sizeof(double);
  rec.sparse_bytes = a.MemoryBytes();

  parallel::SetThreads(threads);
  const int reps = n >= 1024 ? 5 : 9;
  Matrix c_dense, c_sparse;
  rec.dense_seconds =
      TimeKernel([&] { MatMulInto(a_dense, b, &c_dense); }, reps);
  rec.sparse_seconds = TimeKernel([&] { SpMM(a, b, &c_sparse); }, reps);
  parallel::SetThreads(0);

  for (size_t i = 0; i < c_dense.size(); ++i) {
    rec.max_abs_diff = std::max(
        rec.max_abs_diff,
        std::fabs(c_dense.data()[i] - c_sparse.data()[i]));
  }
  const double dense_flops = 2.0 * static_cast<double>(n) * n * kCols;
  const double sparse_flops = 2.0 * static_cast<double>(rec.nnz) * kCols;
  rec.dense_gflops = dense_flops / rec.dense_seconds * 1e-9;
  rec.sparse_gflops = sparse_flops / rec.sparse_seconds * 1e-9;
  rec.speedup = rec.dense_seconds / rec.sparse_seconds;
  return rec;
}

bool WriteJson(const std::string& path,
               const std::vector<SpmmRecord>& records) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"spmm\",\n");
  std::fprintf(f, "  \"kernel\": \"csr-spmm-vs-dense-matmul\",\n");
  std::fprintf(f, "  \"rhs_cols\": 32,\n");
  std::fprintf(f, "  \"max_threads\": %zu,\n", parallel::NumThreads());
  std::fprintf(f, "  \"records\": [\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const SpmmRecord& r = records[i];
    std::fprintf(f,
                 "    {\"size\": %zu, \"density\": %.3f, \"threads\": %zu, "
                 "\"nnz\": %zu, \"dense_seconds\": %.3e, "
                 "\"sparse_seconds\": %.3e, \"dense_gflops\": %.3f, "
                 "\"sparse_gflops\": %.3f, \"speedup\": %.3f, "
                 "\"dense_bytes\": %zu, \"sparse_bytes\": %zu, "
                 "\"max_abs_diff\": %.3e}%s\n",
                 r.size, r.density, r.threads, r.nnz, r.dense_seconds,
                 r.sparse_seconds, r.dense_gflops, r.sparse_gflops,
                 r.speedup, r.dense_bytes, r.sparse_bytes, r.max_abs_diff,
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace
}  // namespace bench
}  // namespace fexiot

int main(int argc, char** argv) {
  using namespace fexiot;
  using namespace fexiot::bench;
  PrintHeader("SPMM",
              "CSR propagation kernel vs dense MatMul (N x N times N x 32)");

  const size_t max_threads = parallel::NumThreads();
  std::vector<size_t> thread_counts = {1};
  if (max_threads > 1) thread_counts.push_back(max_threads);

  Rng rng(20260806);
  const std::vector<size_t> sizes = {64, 128, 256, 512, 1024};
  const std::vector<double> densities = {0.01, 0.05, 0.20, 0.50};
  std::vector<SpmmRecord> records;
  TablePrinter table({"N", "density", "thr", "nnz", "dense s", "sparse s",
                      "speedup", "mem ratio"});
  for (size_t n : sizes) {
    for (double d : densities) {
      for (size_t t : thread_counts) {
        const SpmmRecord rec = BenchConfig(n, d, t, &rng);
        table.AddRow(
            {std::to_string(n), Fmt(d, 2), std::to_string(t),
             std::to_string(rec.nnz), Fmt(rec.dense_seconds, 6),
             Fmt(rec.sparse_seconds, 6), Fmt(rec.speedup, 2),
             Fmt(static_cast<double>(rec.dense_bytes) /
                     static_cast<double>(rec.sparse_bytes),
                 1)});
        records.push_back(rec);
      }
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "speedup < 1 rows mark the density crossover where the dense kernel\n"
      "wins; interaction graphs live far below it (a few edges per node).\n");

  bool all_identical = true;
  for (const SpmmRecord& r : records) {
    all_identical = all_identical && r.max_abs_diff == 0.0;
  }
  if (!all_identical) {
    std::fprintf(stderr, "SpMM differs from the dense product\n");
  }
  const bool written =
      WriteJson(argc > 1 ? argv[1] : "BENCH_spmm.json", records);
  return written && all_identical ? 0 : 1;
}
