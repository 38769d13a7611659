// GEMM kernel trajectory bench, two tables. The first times the blocked/
// packed/parallel MatMul against the retained ReferenceMatMul at square
// sizes 64/256/512/1024. The second times the products the end-to-end
// workloads actually run: GNN layers of a few nodes by 308-wide features,
// all under the small-product cutoff, where MatMul/MatMulTransA run the
// register-tiled kernel; each row also checks that kernel against the
// reference bit for bit. Writes a JSON perf record (BENCH_kernels.json by
// default, or the path in argv[1]) so kernel work accumulates a measurable
// history. The record names the dispatched ISA tier, its register tile,
// the build type and host CPU count, and whether the wide-C pack-reuse
// path engaged at each size, so entries are comparable across hosts (and
// across FEXIOT_ISA overrides).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "tensor/gemm.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

#ifndef FEXIOT_BUILD_TYPE
#define FEXIOT_BUILD_TYPE "unknown"
#endif

namespace fexiot {
namespace bench {
namespace {

struct KernelRecord {
  size_t size = 0;
  double ref_seconds = 0.0;
  double blocked_seconds = 0.0;
  double ref_gflops = 0.0;
  double blocked_gflops = 0.0;
  double speedup = 0.0;
  double max_abs_diff = 0.0;
  bool pack_reuse = false;
};

template <typename Fn>
double TimeKernel(const Fn& fn, int reps) {
  fn();  // warm-up (page faults, pool spin-up)
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    fn();
    samples.push_back(sw.ElapsedSeconds());
  }
  return MedianSeconds(std::move(samples));
}

KernelRecord BenchSize(size_t size, Rng* rng) {
  KernelRecord rec;
  rec.size = size;
  const Matrix a = Matrix::RandomNormal(size, size, 1.0, rng);
  const Matrix b = Matrix::RandomNormal(size, size, 1.0, rng);
  // Odd rep counts so the median is a real middle sample (with 2 samples
  // samples[1] is the max, which punishes the kernel on noisy hosts).
  const int reps = size >= 1024 ? 3 : (size >= 512 ? 5 : 7);

  Matrix c_ref, c_blk;
  rec.ref_seconds = TimeKernel([&] { c_ref = ReferenceMatMul(a, b); }, reps);
  rec.blocked_seconds = TimeKernel([&] { c_blk = MatMul(a, b); }, reps);
  for (size_t i = 0; i < c_ref.size(); ++i) {
    rec.max_abs_diff = std::max(
        rec.max_abs_diff, std::fabs(c_ref.data()[i] - c_blk.data()[i]));
  }

  const double flops = 2.0 * static_cast<double>(size) * size * size;
  rec.ref_gflops = flops / rec.ref_seconds * 1e-9;
  rec.blocked_gflops = flops / rec.blocked_seconds * 1e-9;
  rec.speedup = rec.ref_seconds / rec.blocked_seconds;
  rec.pack_reuse = gemm::PackReuseEngages(size);
  return rec;
}

// A product the end-to-end workloads run (e2ebench), by shape: op(A) is
// n x k (stored k x n for MatMulTransA), B is k x m.
struct SmallShape {
  const char* workload;
  bool trans_a;
  size_t n, k, m;
};

constexpr SmallShape kSmallShapes[] = {
    {"federate", false, 7, 308, 12},       // first GNN layer
    {"federate", false, 7, 12, 12},        // deeper layers
    {"audit-logs", false, 3, 308, 24},     // fused 3 h log windows
    {"audit-graphs", false, 14, 308, 24},  // IFTTT graphs
    {"serving", false, 13, 308, 64},       // one graph of a batch
    {"federate", true, 308, 7, 12},        // first-layer weight gradient
};

struct SmallRecord {
  SmallShape shape;
  double ref_seconds = 0.0;      // per call
  double shipped_seconds = 0.0;  // per call
  double ref_gflops = 0.0;
  double shipped_gflops = 0.0;
  double speedup = 0.0;
  bool bits_identical = false;
};

SmallRecord BenchSmall(const SmallShape& s, Rng* rng) {
  SmallRecord rec;
  rec.shape = s;
  const Matrix a = s.trans_a ? Matrix::RandomNormal(s.k, s.n, 1.0, rng)
                             : Matrix::RandomNormal(s.n, s.k, 1.0, rng);
  const Matrix b = Matrix::RandomNormal(s.k, s.m, 1.0, rng);
  auto reference = [&] {
    return s.trans_a ? ReferenceMatMulTransA(a, b) : ReferenceMatMul(a, b);
  };
  auto shipped = [&] { return s.trans_a ? MatMulTransA(a, b) : MatMul(a, b); };
  const Matrix c_ref = reference();
  const Matrix c_new = shipped();
  rec.bits_identical =
      c_ref.SameShape(c_new) &&
      std::memcmp(c_ref.data(), c_new.data(), c_ref.size() * sizeof(double)) ==
          0;

  // One sample is a batch of calls worth about 4 Mflop (a few hundred
  // microseconds), so the clock's resolution does not matter. The two
  // kernels alternate sample by sample: drift of a shared host's speed
  // then hits both alike.
  const double flops = 2.0 * static_cast<double>(s.n * s.k * s.m);
  const int calls = std::max(1, static_cast<int>(4e6 / flops));
  constexpr int kReps = 15;  // odd: the median is a real sample
  std::vector<double> ref_samples, new_samples;
  Matrix sink;
  for (int r = 0; r <= kReps; ++r) {  // r == 0 warms up
    Stopwatch ref_sw;
    for (int i = 0; i < calls; ++i) sink = reference();
    const double ref_t = ref_sw.ElapsedSeconds();
    Stopwatch new_sw;
    for (int i = 0; i < calls; ++i) sink = shipped();
    const double new_t = new_sw.ElapsedSeconds();
    if (r == 0) continue;
    ref_samples.push_back(ref_t / calls);
    new_samples.push_back(new_t / calls);
  }
  rec.ref_seconds = MedianSeconds(std::move(ref_samples));
  rec.shipped_seconds = MedianSeconds(std::move(new_samples));
  rec.ref_gflops = flops / rec.ref_seconds * 1e-9;
  rec.shipped_gflops = flops / rec.shipped_seconds * 1e-9;
  rec.speedup = rec.ref_seconds / rec.shipped_seconds;
  return rec;
}

bool WriteJson(const std::string& path,
               const std::vector<KernelRecord>& records,
               const std::vector<SmallRecord>& small) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  const gemm::KernelInfo& ker = gemm::ActiveKernel();
  std::fprintf(f, "{\n  \"bench\": \"kernels\",\n");
  std::fprintf(f, "  \"kernel\": \"simd-dispatch-gemm\",\n");
  std::fprintf(f, "  \"isa\": \"%s\",\n", ker.name);
  std::fprintf(f, "  \"tile\": \"%s\",\n", ker.tile);
  std::fprintf(f,
               "  \"blocking\": {\"mc\": %zu, \"kc\": %zu, \"nc\": %zu},\n",
               ker.mc, ker.kc, ker.nc);
  std::fprintf(f, "  \"threads\": %zu,\n", parallel::NumThreads());
  std::fprintf(f, "  \"host_cpus\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"build_type\": \"%s\",\n", FEXIOT_BUILD_TYPE);
  std::fprintf(f, "  \"records\": [\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const KernelRecord& r = records[i];
    std::fprintf(f,
                 "    {\"size\": %zu, \"ref_seconds\": %.6f, "
                 "\"blocked_seconds\": %.6f, \"ref_gflops\": %.3f, "
                 "\"blocked_gflops\": %.3f, \"speedup\": %.3f, "
                 "\"max_abs_diff\": %.3e, \"pack_reuse\": %s}%s\n",
                 r.size, r.ref_seconds, r.blocked_seconds, r.ref_gflops,
                 r.blocked_gflops, r.speedup, r.max_abs_diff,
                 r.pack_reuse ? "true" : "false",
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"small_records\": [\n");
  for (size_t i = 0; i < small.size(); ++i) {
    const SmallRecord& r = small[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"op\": \"%s\", \"n\": %zu, "
                 "\"k\": %zu, \"m\": %zu, \"ref_us\": %.4f, "
                 "\"shipped_us\": %.4f, \"ref_gflops\": %.3f, "
                 "\"shipped_gflops\": %.3f, \"speedup\": %.3f, "
                 "\"bits_identical\": %s}%s\n",
                 r.shape.workload, r.shape.trans_a ? "MatMulTransA" : "MatMul",
                 r.shape.n, r.shape.k, r.shape.m, r.ref_seconds * 1e6,
                 r.shipped_seconds * 1e6, r.ref_gflops, r.shipped_gflops,
                 r.speedup, r.bits_identical ? "true" : "false",
                 i + 1 < small.size() ? "," : "");
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
  PrintHeader("KERNELS",
              "blocked GEMM vs reference (double, square NxNxN), then the "
              "workloads' small products");

  Rng rng(20240806);
  const std::vector<size_t> sizes = {64, 256, 512, 1024};
  std::vector<KernelRecord> records;
  TablePrinter table(
      {"N", "ref s", "blocked s", "ref GF/s", "blk GF/s", "speedup"});
  for (size_t n : sizes) {
    const KernelRecord rec = BenchSize(n, &rng);
    table.AddRow({std::to_string(n), Fmt(rec.ref_seconds, 4),
                  Fmt(rec.blocked_seconds, 4), Fmt(rec.ref_gflops, 2),
                  Fmt(rec.blocked_gflops, 2), Fmt(rec.speedup, 2)});
    records.push_back(rec);
  }
  std::printf("%s\n", table.ToString().c_str());

  // The products the workloads run: all under the small-product cutoff.
  std::vector<SmallRecord> small;
  TablePrinter small_table({"workload", "op", "n x k x m", "ref GF/s",
                            "shipped GF/s", "speedup", "bits"});
  bool all_identical = true;
  for (const SmallShape& s : kSmallShapes) {
    const SmallRecord rec = BenchSmall(s, &rng);
    small_table.AddRow(
        {s.workload, s.trans_a ? "MatMulTransA" : "MatMul",
         std::to_string(s.n) + "x" + std::to_string(s.k) + "x" +
             std::to_string(s.m),
         Fmt(rec.ref_gflops, 2), Fmt(rec.shipped_gflops, 2),
         Fmt(rec.speedup, 2), rec.bits_identical ? "same" : "DIFFER"});
    all_identical = all_identical && rec.bits_identical;
    small.push_back(rec);
  }
  std::printf("%s\n", small_table.ToString().c_str());
  const gemm::KernelInfo& ker = gemm::ActiveKernel();
  std::printf("dispatched isa: %s (tile %s, mc=%zu kc=%zu nc=%zu)\n",
              ker.name, ker.tile, ker.mc, ker.kc, ker.nc);
  std::printf("pool threads: %zu\n", parallel::NumThreads());

  if (!all_identical) {
    std::fprintf(stderr, "small-product kernel differs from the reference\n");
  }
  const bool written =
      WriteJson(argc > 1 ? argv[1] : "BENCH_kernels.json", records, small);
  return written && all_identical ? 0 : 1;
}
