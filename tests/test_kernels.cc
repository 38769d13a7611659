// Parity, determinism, and race harness for the blocked GEMM kernels and
// their runtime ISA dispatch (tensor/gemm.h).
//
// MatMul/MatMulTransA/MatMulTransB are checked against the retained
// reference kernels over a randomized shape sweep (degenerate, tiny,
// non-block-multiple, wide-C pack-reuse, and above the small-product
// cutoff so the blocked path actually runs); under the cutoff the
// register-tiled kernel must match the reference bit for bit (memcmp over
// a sweep of the paper's shapes). Results must be bit-identical across
// pool sizes and across the AVX2/AVX-512 tiers (ULP-bounded against the
// scalar tier — see docs/KERNELS.md), and must survive concurrent callers
// sharing the global pool (run under -DFEXIOT_SANITIZE=thread in
// ci/run_tests.sh, which also reruns this binary under each FEXIOT_ISA).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "common/cpu_features.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "tensor/gemm.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace fexiot {
namespace {

struct Shape {
  size_t n, k, m;
};

// Mix of degenerate shapes, sizes straddling the microkernel tile
// (kMr=4 x kNr=16) and block (kMc=64, kKc=256) boundaries, and products
// above the small-flop cutoff (64^3) that exercise the packed path.
std::vector<Shape> ParityShapes() {
  std::vector<Shape> shapes = {
      {0, 0, 0},   {0, 5, 3},   {5, 0, 3},    {5, 3, 0},    {1, 1, 1},
      {1, 7, 1},   {2, 2, 2},   {3, 5, 7},    {4, 4, 16},   {5, 17, 9},
      {15, 16, 17}, {16, 16, 16}, {31, 33, 29}, {63, 64, 65}, {64, 64, 64},
      {65, 65, 65}, {64, 1, 64},  {1, 300, 900}, {100, 128, 100},
      {128, 128, 128}, {130, 70, 90}, {200, 16, 300}, {32, 512, 32},
      {96, 257, 48}, {40, 600, 24},
      // Wide C (m > nc): the pack-reuse path caches packed A blocks per
      // depth block and reuses them across column panels.
      {40, 500, 1500}, {24, 700, 600},
  };
  // Randomized fill to ~50 shapes, biased to straddle the cutoff.
  Rng rng(20250806);
  while (shapes.size() < 50) {
    const size_t n = 1 + rng.UniformInt(uint64_t{140});
    const size_t k = 1 + rng.UniformInt(uint64_t{300});
    const size_t m = 1 + rng.UniformInt(uint64_t{140});
    shapes.push_back({n, k, m});
  }
  return shapes;
}

// Equal within floating-point reassociation slack: the blocked kernel
// accumulates per depth block, so elements may differ from the reference
// in the last bits once k spans multiple blocks.
void ExpectMatricesNear(const Matrix& expected, const Matrix& got,
                        size_t k, const char* what, const Shape& s) {
  ASSERT_TRUE(expected.SameShape(got))
      << what << " shape mismatch at n=" << s.n << " k=" << s.k
      << " m=" << s.m;
  const double tol = 1e-9 * static_cast<double>(k + 1);
  for (size_t i = 0; i < expected.size(); ++i) {
    const double e = expected.data()[i];
    const double g = got.data()[i];
    ASSERT_NEAR(e, g, tol * std::max(1.0, std::fabs(e)))
        << what << " mismatch at flat index " << i << " for n=" << s.n
        << " k=" << s.k << " m=" << s.m;
  }
}

TEST(Kernels, BlockedMatchesReferenceAcrossShapes) {
  Rng rng(11);
  for (const Shape& s : ParityShapes()) {
    const Matrix a = Matrix::RandomNormal(s.n, s.k, 1.0, &rng);
    const Matrix b = Matrix::RandomNormal(s.k, s.m, 1.0, &rng);
    ExpectMatricesNear(ReferenceMatMul(a, b), MatMul(a, b), s.k, "MatMul",
                       s);
  }
}

TEST(Kernels, BlockedTransAMatchesReference) {
  Rng rng(12);
  for (const Shape& s : ParityShapes()) {
    // op(A) is n x k, so A is stored k x n.
    const Matrix a = Matrix::RandomNormal(s.k, s.n, 1.0, &rng);
    const Matrix b = Matrix::RandomNormal(s.k, s.m, 1.0, &rng);
    ExpectMatricesNear(ReferenceMatMulTransA(a, b), MatMulTransA(a, b), s.k,
                       "MatMulTransA", s);
  }
}

TEST(Kernels, BlockedTransBMatchesReference) {
  Rng rng(13);
  for (const Shape& s : ParityShapes()) {
    const Matrix a = Matrix::RandomNormal(s.n, s.k, 1.0, &rng);
    const Matrix b = Matrix::RandomNormal(s.m, s.k, 1.0, &rng);
    ExpectMatricesNear(ReferenceMatMulTransB(a, b), MatMulTransB(a, b), s.k,
                       "MatMulTransB", s);
  }
}

// --- Small-product path: bit for bit against the reference --------------
//
// Products under the small-flop cutoff (64^3, tensor/ops.cc) run the
// register-tiled kernel, whose contract is stronger than the blocked
// path's: it equals ReferenceMatMul / ReferenceMatMulTransA bit for bit in
// every build (FMA-contracted under -march=native or not; ci/run_tests.sh
// also runs this binary from a -DFEXIOT_NATIVE=OFF build). The sweep
// covers every tile remainder at the paper's widths and depths.
constexpr size_t kSmallFlops = 64 * 64 * 64;

std::vector<Shape> SmallPathShapes() {
  std::vector<Shape> shapes;
  std::vector<size_t> widths;
  for (size_t m = 1; m <= 17; ++m) widths.push_back(m);
  for (size_t m : {24, 32, 48, 64}) widths.push_back(m);
  for (size_t n = 1; n <= 17; ++n) {
    for (size_t k : {1, 2, 7, 12, 24, 64, 308}) {
      for (size_t m : widths) {
        if (n * k * m < kSmallFlops) shapes.push_back({n, k, m});
      }
    }
  }
  return shapes;
}

// Normal entries with +0.0 and -0.0 mixed in, and one all-zero row.
Matrix WithSignedZeros(size_t rows, size_t cols, Rng* rng) {
  Matrix a = Matrix::RandomNormal(rows, cols, 1.0, rng);
  for (size_t i = 0; i < a.size(); ++i) {
    const uint64_t u = rng->UniformInt(uint64_t{5});
    if (u == 0) a.data()[i] = 0.0;
    if (u == 1) a.data()[i] = -0.0;
  }
  double* zero_row = a.RowPtr(rows / 2);
  std::fill(zero_row, zero_row + cols, 0.0);
  return a;
}

// B with one +inf in its last row: a term a(i,p) * inf is skipped exactly
// when a(i,p) is a zero of either sign, so any change to the zero-skip
// shows up as a NaN.
Matrix WithInfinity(size_t rows, size_t cols, Rng* rng) {
  Matrix b = Matrix::RandomNormal(rows, cols, 1.0, rng);
  b.At(rows - 1, cols / 2) = std::numeric_limits<double>::infinity();
  return b;
}

// A reused output whose stale contents would show through any element
// the kernel failed to write.
Matrix Stale(size_t rows, size_t cols) {
  return Matrix(rows, cols, std::numeric_limits<double>::quiet_NaN());
}

void ExpectSameBits(const Matrix& expected, const Matrix& got,
                    const char* what, const Shape& s) {
  ASSERT_TRUE(expected.SameShape(got))
      << what << " shape mismatch at n=" << s.n << " k=" << s.k
      << " m=" << s.m;
  ASSERT_EQ(std::memcmp(expected.data(), got.data(),
                        expected.size() * sizeof(double)),
            0)
      << what << " differs from the reference at n=" << s.n << " k=" << s.k
      << " m=" << s.m;
}

TEST(Kernels, SmallMatMulEqualsReferenceBitForBit) {
  Rng rng(19);
  const std::vector<Shape> shapes = SmallPathShapes();
  ASSERT_GT(shapes.size(), 2000u);
  for (const Shape& s : shapes) {
    const Matrix a = WithSignedZeros(s.n, s.k, &rng);
    const Matrix b = WithInfinity(s.k, s.m, &rng);
    const Matrix expected = ReferenceMatMul(a, b);
    Matrix c = Stale(s.n + 1, s.m + 1);
    MatMulInto(a, b, &c);
    ExpectSameBits(expected, c, "MatMulInto", s);
    ExpectSameBits(expected, MatMul(a, b), "MatMul", s);
  }
}

TEST(Kernels, SmallMatMulBlocksEqualsReferenceBitForBit) {
  Rng rng(20);
  for (const Shape& s : SmallPathShapes()) {
    const Matrix a = WithSignedZeros(s.n, s.k, &rng);
    const Matrix b = WithInfinity(s.k, s.m, &rng);
    // A random partition of the rows that starts with an empty block and
    // a one-row block; later blocks hold 0 to 4 rows.
    std::vector<size_t> offsets = {0, 0, 1};
    while (offsets.back() < s.n) {
      const size_t rows = rng.UniformInt(uint64_t{5});
      offsets.push_back(std::min(s.n, offsets.back() + rows));
    }
    Matrix c = Stale(s.n + 1, s.m + 1);
    MatMulBlocksInto(a, b, offsets, &c);
    ExpectSameBits(ReferenceMatMul(a, b), c, "MatMulBlocksInto", s);
  }
}

TEST(Kernels, SmallMatMulTransAEqualsReferenceBitForBit) {
  Rng rng(21);
  for (const Shape& s : SmallPathShapes()) {
    // op(A) is n x k, so A is stored k x n.
    const Matrix a = WithSignedZeros(s.k, s.n, &rng);
    const Matrix b = WithInfinity(s.k, s.m, &rng);
    const Matrix expected = ReferenceMatMulTransA(a, b);
    Matrix c = Stale(s.n + 1, s.m + 1);
    MatMulTransAInto(a, b, &c);
    ExpectSameBits(expected, c, "MatMulTransAInto", s);
    ExpectSameBits(expected, MatMulTransA(a, b), "MatMulTransA", s);
  }
}

TEST(Kernels, ZerosTimesAnythingIsExactlyZero) {
  Rng rng(14);
  const Matrix a(70, 80);  // all zeros
  const Matrix b = Matrix::RandomNormal(80, 90, 1.0, &rng);
  const Matrix c = MatMul(a, b);
  for (size_t i = 0; i < c.size(); ++i) EXPECT_EQ(c.data()[i], 0.0);
}

TEST(Kernels, IdentityIsExact) {
  Rng rng(15);
  const size_t n = 96;  // above the small-product cutoff: blocked path
  const Matrix a = Matrix::RandomNormal(n, n, 1.0, &rng);
  const Matrix c = MatMul(a, Matrix::Identity(n));
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c.data()[i], a.data()[i]) << "flat index " << i;
  }
}

// The determinism contract: results are a pure function of the inputs,
// independent of pool size — bit-for-bit, not just within tolerance.
TEST(Kernels, ResultsBitIdenticalAcrossThreadCounts) {
  Rng rng(16);
  const Matrix a = Matrix::RandomNormal(130, 257, 1.0, &rng);
  const Matrix b = Matrix::RandomNormal(257, 120, 1.0, &rng);

  parallel::SetThreads(1);
  const Matrix c1 = MatMul(a, b);
  const Matrix t1 = MatMulTransA(a.Transposed(), b);
  parallel::SetThreads(4);
  const Matrix c4 = MatMul(a, b);
  const Matrix t4 = MatMulTransA(a.Transposed(), b);
  parallel::SetThreads(0);  // restore default sizing

  ASSERT_TRUE(c1.SameShape(c4));
  for (size_t i = 0; i < c1.size(); ++i) {
    ASSERT_EQ(c1.data()[i], c4.data()[i]) << "flat index " << i;
  }
  ASSERT_TRUE(t1.SameShape(t4));
  for (size_t i = 0; i < t1.size(); ++i) {
    ASSERT_EQ(t1.data()[i], t4.data()[i]) << "flat index " << i;
  }
}

// Race harness: independent caller threads share the one global pool.
// Each verifies its own product; TSAN (ci/run_tests.sh) checks the pool.
TEST(Kernels, ConcurrentCallersShareThePool) {
  parallel::SetThreads(4);
  constexpr int kCallers = 4;
  Rng rng(17);
  std::vector<Matrix> as, bs, expected;
  for (int t = 0; t < kCallers; ++t) {
    as.push_back(Matrix::RandomNormal(80, 90, 1.0, &rng));
    bs.push_back(Matrix::RandomNormal(90, 70, 1.0, &rng));
    expected.push_back(MatMul(as.back(), bs.back()));
  }
  std::vector<int> ok(kCallers, 0);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int rep = 0; rep < 8; ++rep) {
        const Matrix c = MatMul(as[t], bs[t]);
        if (!c.SameShape(expected[t])) return;
        for (size_t i = 0; i < c.size(); ++i) {
          if (c.data()[i] != expected[t].data()[i]) return;
        }
      }
      ok[t] = 1;
    });
  }
  for (auto& th : callers) th.join();
  parallel::SetThreads(0);
  for (int t = 0; t < kCallers; ++t) {
    EXPECT_EQ(ok[t], 1) << "caller " << t << " saw a wrong product";
  }
}

// --- Runtime ISA dispatch (tensor/gemm.h) ---------------------------------
//
// ci/run_tests.sh reruns this whole binary under FEXIOT_ISA=scalar/avx2/
// avx512, which exercises the environment-variable path end to end; the
// in-process suite below uses gemm::SetActiveIsa to sweep every tier a
// single host supports.

// Restores the dispatched kernel on scope exit so direct (non-ctest)
// runs of this binary don't leak an override into later tests.
class IsaGuard {
 public:
  IsaGuard() : saved_(gemm::ActiveKernel().isa) {}
  ~IsaGuard() { gemm::SetActiveIsa(saved_); }

 private:
  cpu::Isa saved_;
};

const gemm::KernelInfo* CompiledKernel(cpu::Isa isa) {
  switch (isa) {
    case cpu::Isa::kAvx512:
      return gemm::Avx512Kernel();
    case cpu::Isa::kAvx2:
      return gemm::Avx2Kernel();
    case cpu::Isa::kScalar:
      return gemm::ScalarKernel();
  }
  return nullptr;
}

TEST(IsaDispatch, ActiveKernelIsRunnableAndHonorsEnv) {
  const gemm::KernelInfo& active = gemm::ActiveKernel();
  EXPECT_TRUE(cpu::IsaSupported(active.isa));
  ASSERT_NE(CompiledKernel(active.isa), nullptr);
  EXPECT_EQ(active.mc % active.mr, 0u);
  EXPECT_EQ(active.nc % active.nr, 0u);
  // When FEXIOT_ISA names a tier this host can actually run, the
  // dispatcher must have picked exactly that tier.
  const char* env = std::getenv("FEXIOT_ISA");
  cpu::Isa requested;
  if (env != nullptr && cpu::ParseIsa(env, &requested) &&
      cpu::IsaSupported(requested) && CompiledKernel(requested) != nullptr) {
    EXPECT_EQ(active.isa, requested) << "FEXIOT_ISA=" << env << " ignored";
  }
}

TEST(IsaDispatch, SetActiveIsaRejectsUnsupportedTiers) {
  IsaGuard guard;
  const cpu::Isa before = gemm::ActiveKernel().isa;
  for (cpu::Isa isa :
       {cpu::Isa::kScalar, cpu::Isa::kAvx2, cpu::Isa::kAvx512}) {
    const bool available =
        cpu::IsaSupported(isa) && CompiledKernel(isa) != nullptr;
    EXPECT_EQ(gemm::SetActiveIsa(isa), available) << cpu::IsaName(isa);
    if (!available) {
      EXPECT_EQ(gemm::ActiveKernel().isa, before)
          << "failed override must leave the selection unchanged";
    }
  }
  ASSERT_TRUE(gemm::SetActiveIsa(cpu::Isa::kScalar));
  EXPECT_EQ(gemm::ActiveKernel().isa, cpu::Isa::kScalar);
}

// The cross-ISA / cross-thread-count parity contract (docs/KERNELS.md):
//  - per tier, results are bit-identical for every thread count;
//  - AVX2 and AVX-512 agree bit-for-bit (identical per-element FMA
//    sequence, only the vector grouping differs);
//  - the scalar tier (mul+add, -ffp-contract=off) differs from the FMA
//    tiers by at most one rounding per accumulation step, enforced here
//    with the conservative envelope 1e-9 * (k+1) relative to |element|.
TEST(IsaDispatch, ParityAcrossIsasAndThreadCounts) {
  IsaGuard guard;
  // Sizes straddle the small-product cutoff, block boundaries, and the
  // wide-C pack-reuse threshold (m > nc); k > kc exercises multiple
  // depth blocks.
  const std::vector<Shape> shapes = {
      {96, 96, 96},  {130, 257, 120}, {64, 512, 64},
      {65, 300, 70}, {70, 300, 1100}, {33, 80, 550},
  };
  Rng rng(20260806);
  for (const Shape& s : shapes) {
    const Matrix a = Matrix::RandomNormal(s.n, s.k, 1.0, &rng);
    const Matrix b = Matrix::RandomNormal(s.k, s.m, 1.0, &rng);
    const Matrix at = a.Transposed();
    const Matrix bt = b.Transposed();

    std::vector<cpu::Isa> ran;
    std::vector<Matrix> c_by_isa, ta_by_isa, tb_by_isa;
    for (cpu::Isa isa :
         {cpu::Isa::kScalar, cpu::Isa::kAvx2, cpu::Isa::kAvx512}) {
      if (!gemm::SetActiveIsa(isa)) continue;  // host can't run this tier
      parallel::SetThreads(1);
      const Matrix c1 = MatMul(a, b);
      const Matrix ta1 = MatMulTransA(at, b);
      const Matrix tb1 = MatMulTransB(a, bt);
      parallel::SetThreads(4);
      const Matrix c4 = MatMul(a, b);
      const Matrix ta4 = MatMulTransA(at, b);
      const Matrix tb4 = MatMulTransB(a, bt);
      parallel::SetThreads(0);
      for (size_t i = 0; i < c1.size(); ++i) {
        ASSERT_EQ(c1.data()[i], c4.data()[i])
            << cpu::IsaName(isa) << " MatMul thread-count divergence at "
            << i << " (n=" << s.n << " k=" << s.k << " m=" << s.m << ")";
      }
      for (size_t i = 0; i < ta1.size(); ++i) {
        ASSERT_EQ(ta1.data()[i], ta4.data()[i])
            << cpu::IsaName(isa) << " TransA thread-count divergence at "
            << i;
      }
      for (size_t i = 0; i < tb1.size(); ++i) {
        ASSERT_EQ(tb1.data()[i], tb4.data()[i])
            << cpu::IsaName(isa) << " TransB thread-count divergence at "
            << i;
      }
      ran.push_back(isa);
      c_by_isa.push_back(c1);
      ta_by_isa.push_back(ta1);
      tb_by_isa.push_back(tb1);
    }
    ASSERT_FALSE(ran.empty());  // scalar always runs

    for (size_t x = 1; x < ran.size(); ++x) {
      for (size_t y = 0; y < x; ++y) {
        const bool both_fma =
            ran[x] != cpu::Isa::kScalar && ran[y] != cpu::Isa::kScalar;
        if (both_fma) {
          // AVX2 vs AVX-512: exactly the same bits.
          for (size_t i = 0; i < c_by_isa[x].size(); ++i) {
            ASSERT_EQ(c_by_isa[x].data()[i], c_by_isa[y].data()[i])
                << cpu::IsaName(ran[x]) << " vs " << cpu::IsaName(ran[y])
                << " MatMul divergence at " << i << " (n=" << s.n
                << " k=" << s.k << " m=" << s.m << ")";
          }
          for (size_t i = 0; i < ta_by_isa[x].size(); ++i) {
            ASSERT_EQ(ta_by_isa[x].data()[i], ta_by_isa[y].data()[i])
                << "TransA divergence at " << i;
          }
          for (size_t i = 0; i < tb_by_isa[x].size(); ++i) {
            ASSERT_EQ(tb_by_isa[x].data()[i], tb_by_isa[y].data()[i])
                << "TransB divergence at " << i;
          }
        } else {
          ExpectMatricesNear(c_by_isa[y], c_by_isa[x], s.k, "isa MatMul",
                             s);
          ExpectMatricesNear(ta_by_isa[y], ta_by_isa[x], s.k, "isa TransA",
                             s);
          ExpectMatricesNear(tb_by_isa[y], tb_by_isa[x], s.k, "isa TransB",
                             s);
        }
      }
    }
  }
}

// Every compiled+supported tier must match the ISA-independent reference
// on the wide-C pack-reuse path (m > nc) with multiple depth blocks, the
// shape where A packs are cached per depth block and PackB fans out over
// the pool.
TEST(IsaDispatch, PackReusePathMatchesReferencePerIsa) {
  IsaGuard guard;
  Rng rng(18);
  const Shape s{70, 600, 1300};
  const Matrix a = Matrix::RandomNormal(s.n, s.k, 1.0, &rng);
  const Matrix b = Matrix::RandomNormal(s.k, s.m, 1.0, &rng);
  const Matrix expected = ReferenceMatMul(a, b);
  for (cpu::Isa isa :
       {cpu::Isa::kScalar, cpu::Isa::kAvx2, cpu::Isa::kAvx512}) {
    if (!gemm::SetActiveIsa(isa)) continue;
    ASSERT_TRUE(gemm::PackReuseEngages(s.m)) << cpu::IsaName(isa);
    ExpectMatricesNear(expected, MatMul(a, b), s.k, cpu::IsaName(isa), s);
  }
}

TEST(Kernels, ParallelForRangeCoversEveryIndexOnce) {
  parallel::SetThreads(3);
  const size_t n = 1013;  // deliberately not a multiple of the pool size
  std::vector<int> hits(n, 0);
  parallel::ForRange(n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  parallel::SetThreads(0);
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1) << "index " << i;
}

}  // namespace
}  // namespace fexiot
