// Dense product kernel trajectory bench. One table: the products the
// end-to-end workloads run (GNN layers of a few nodes by 308-wide
// features), then square products at 64/256/512/1024. Each row times
// MatMul/MatMulTransA against its retained Reference* kernel and checks
// the bits (exit 1 if any row differs). Writes a JSON perf record
// (BENCH_kernels.json by default, or the path in argv[1]) so kernel work
// accumulates a measurable history. The record names the vector ISA the
// kernel was compiled for, the pool size, the build type and host CPU
// count, so entries are comparable across hosts.

#include <algorithm>
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

// One product by shape: op(A) is n x k (stored k x n for MatMulTransA),
// B is k x m.
struct Shape {
  const char* workload;
  bool trans_a;
  size_t n, k, m;
};

constexpr Shape kShapes[] = {
    {"federate", false, 7, 308, 12},       // first GNN layer
    {"federate", false, 7, 12, 12},        // deeper layers
    {"audit-logs", false, 3, 308, 24},     // fused 3 h log windows
    {"audit-graphs", false, 14, 308, 24},  // IFTTT graphs
    {"serving", false, 13, 308, 64},       // one graph of a batch
    {"federate", true, 308, 7, 12},        // first-layer weight gradient
    {"square", false, 64, 64, 64},
    {"square", false, 256, 256, 256},
    {"square", false, 512, 512, 512},
    {"square", false, 1024, 1024, 1024},
};

struct Record {
  Shape shape;
  double ref_seconds = 0.0;      // per call
  double shipped_seconds = 0.0;  // per call
  double ref_gflops = 0.0;
  double shipped_gflops = 0.0;
  double speedup = 0.0;
  bool bits_identical = false;
};

Record Bench(const Shape& s, Rng* rng) {
  Record rec;
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
  // microseconds; a single call for the larger squares), so the clock's
  // resolution does not matter. The two kernels alternate sample by
  // sample: drift of a shared host's speed then hits both alike.
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

bool WriteJson(const std::string& path, const std::vector<Record>& records) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"kernels\",\n");
  std::fprintf(f, "  \"isa\": \"%s\",\n", gemm::ActiveKernel().name);
  std::fprintf(f, "  \"threads\": %zu,\n", parallel::NumThreads());
  std::fprintf(f, "  \"host_cpus\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"build_type\": \"%s\",\n", FEXIOT_BUILD_TYPE);
  std::fprintf(f, "  \"records\": [\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
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
  PrintHeader("KERNELS",
              "dense product kernel vs reference: the workloads' products, "
              "then square NxNxN (double)");

  Rng rng(20240806);
  std::vector<Record> records;
  TablePrinter table({"workload", "op", "n x k x m", "ref GF/s",
                      "shipped GF/s", "speedup", "bits"});
  bool all_identical = true;
  for (const Shape& s : kShapes) {
    const Record rec = Bench(s, &rng);
    table.AddRow(
        {s.workload, s.trans_a ? "MatMulTransA" : "MatMul",
         std::to_string(s.n) + "x" + std::to_string(s.k) + "x" +
             std::to_string(s.m),
         Fmt(rec.ref_gflops, 2), Fmt(rec.shipped_gflops, 2),
         Fmt(rec.speedup, 2), rec.bits_identical ? "same" : "DIFFER"});
    all_identical = all_identical && rec.bits_identical;
    records.push_back(rec);
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("kernel isa: %s\n", gemm::ActiveKernel().name);
  std::printf("pool threads: %zu\n", parallel::NumThreads());

  if (!all_identical) {
    std::fprintf(stderr, "the kernel differs from the reference\n");
  }
  const bool written =
      WriteJson(argc > 1 ? argv[1] : "BENCH_kernels.json", records);
  return written && all_identical ? 0 : 1;
}
