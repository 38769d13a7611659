// Parity, determinism, and race harness for the dense products
// (tensor/ops.h).
//
// MatMul/MatMulTransA/MatMulTransB and their Into forms must equal the
// retained Reference* kernels bit for bit (memcmp): over a randomized
// shape sweep from degenerate shapes up to 40 x 500 x 1500, and over every
// tile remainder at the paper's shapes on operands with signed zeros and
// an infinity, into stale outputs. Rows stacked into one product must get
// the bits of their own product. ci/run_tests.sh also runs this binary
// from a -DFEXIOT_NATIVE=OFF build, where neither side is FMA-contracted.
// Results must be bit-identical across pool sizes and survive concurrent
// callers (run under -DFEXIOT_SANITIZE=thread in ci/run_tests.sh).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace fexiot {
namespace {

struct Shape {
  size_t n, k, m;
};

// Degenerate shapes, sizes straddling the kernel's 4-row tile and its
// column strips, and products far wider and deeper than the paper's.
std::vector<Shape> ParityShapes() {
  std::vector<Shape> shapes = {
      {0, 0, 0},   {0, 5, 3},   {5, 0, 3},    {5, 3, 0},    {1, 1, 1},
      {1, 7, 1},   {2, 2, 2},   {3, 5, 7},    {4, 4, 16},   {5, 17, 9},
      {15, 16, 17}, {16, 16, 16}, {31, 33, 29}, {63, 64, 65}, {64, 64, 64},
      {65, 65, 65}, {64, 1, 64},  {1, 300, 900}, {100, 128, 100},
      {128, 128, 128}, {130, 70, 90}, {200, 16, 300}, {32, 512, 32},
      {96, 257, 48}, {40, 600, 24}, {40, 500, 1500}, {24, 700, 600},
  };
  // Randomized fill to 50 shapes.
  Rng rng(20250806);
  while (shapes.size() < 50) {
    const size_t n = 1 + rng.UniformInt(uint64_t{140});
    const size_t k = 1 + rng.UniformInt(uint64_t{300});
    const size_t m = 1 + rng.UniformInt(uint64_t{140});
    shapes.push_back({n, k, m});
  }
  return shapes;
}

// Every tile remainder at the paper's widths and depths: 1 to 17 rows
// (interaction graphs, and serving homes of up to 17 rules), depths up to
// the 308-wide features, widths up to 64.
std::vector<Shape> TileShapes() {
  std::vector<Shape> shapes;
  std::vector<size_t> widths;
  for (size_t m = 1; m <= 17; ++m) widths.push_back(m);
  for (size_t m : {24, 32, 48, 64}) widths.push_back(m);
  for (size_t n = 1; n <= 17; ++n) {
    for (size_t k : {1, 2, 7, 12, 24, 64, 308}) {
      for (size_t m : widths) shapes.push_back({n, k, m});
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
  if (expected.size() == 0) return;  // memcmp may not take an empty data()
  ASSERT_EQ(std::memcmp(expected.data(), got.data(),
                        expected.size() * sizeof(double)),
            0)
      << what << " differs from the reference at n=" << s.n << " k=" << s.k
      << " m=" << s.m;
}

TEST(Kernels, MatMulEqualsReferenceAcrossShapes) {
  Rng rng(11);
  for (const Shape& s : ParityShapes()) {
    const Matrix a = Matrix::RandomNormal(s.n, s.k, 1.0, &rng);
    const Matrix b = Matrix::RandomNormal(s.k, s.m, 1.0, &rng);
    ExpectSameBits(ReferenceMatMul(a, b), MatMul(a, b), "MatMul", s);
  }
}

TEST(Kernels, MatMulTransAEqualsReferenceAcrossShapes) {
  Rng rng(12);
  for (const Shape& s : ParityShapes()) {
    // op(A) is n x k, so A is stored k x n.
    const Matrix a = Matrix::RandomNormal(s.k, s.n, 1.0, &rng);
    const Matrix b = Matrix::RandomNormal(s.k, s.m, 1.0, &rng);
    ExpectSameBits(ReferenceMatMulTransA(a, b), MatMulTransA(a, b),
                   "MatMulTransA", s);
  }
}

TEST(Kernels, MatMulTransBEqualsReferenceAcrossShapes) {
  Rng rng(13);
  for (const Shape& s : ParityShapes()) {
    const Matrix a = Matrix::RandomNormal(s.n, s.k, 1.0, &rng);
    const Matrix b = Matrix::RandomNormal(s.m, s.k, 1.0, &rng);
    ExpectSameBits(ReferenceMatMulTransB(a, b), MatMulTransB(a, b),
                   "MatMulTransB", s);
  }
}

TEST(Kernels, SmallMatMulEqualsReferenceBitForBit) {
  Rng rng(19);
  const std::vector<Shape> shapes = TileShapes();
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

// Row independence (docs/KERNELS.md §3): every batched forward multiplies
// rows stacked from many graphs in one product, so each block of rows must
// get the bits of its own product, whichever tiles the stacking puts them
// in. Checks one product of all of \p a's rows against one product per
// block of \p offsets.
void ExpectStackedRowsEqualBlockProducts(const Matrix& a, const Matrix& b,
                                         const std::vector<size_t>& offsets,
                                         const Shape& s) {
  Matrix stacked = Stale(s.n + 1, s.m + 1);
  MatMulInto(a, b, &stacked);
  ASSERT_EQ(stacked.rows(), s.n);
  for (size_t bi = 0; bi + 1 < offsets.size(); ++bi) {
    const size_t r0 = offsets[bi], r1 = offsets[bi + 1];
    if (r0 == r1) continue;
    Matrix block(r1 - r0, s.k);
    std::copy(a.RowPtr(r0), a.RowPtr(r0) + block.size(), block.data());
    Matrix alone = Stale(block.rows() + 1, s.m + 1);
    MatMulInto(block, b, &alone);
    ASSERT_EQ(std::memcmp(stacked.RowPtr(r0), alone.data(),
                          alone.size() * sizeof(double)),
              0)
        << "rows [" << r0 << ", " << r1 << ") at n=" << s.n << " k=" << s.k
        << " m=" << s.m;
  }
}

TEST(Kernels, StackedRowsEqualPerBlockProductsBitForBit) {
  Rng rng(20);
  for (const Shape& s : TileShapes()) {
    const Matrix a = WithSignedZeros(s.n, s.k, &rng);
    const Matrix b = WithInfinity(s.k, s.m, &rng);
    // A random partition of the rows that starts with an empty block and
    // a one-row block; later blocks hold 0 to 4 rows.
    std::vector<size_t> offsets = {0, 0, 1};
    while (offsets.back() < s.n) {
      const size_t rows = rng.UniformInt(uint64_t{5});
      offsets.push_back(std::min(s.n, offsets.back() + rows));
    }
    ExpectStackedRowsEqualBlockProducts(a, b, offsets, s);
  }
  // Blocks of 20, 0, 60 and 1 rows at a first-layer shape.
  const Shape s = {81, 308, 16};
  const Matrix a = WithSignedZeros(s.n, s.k, &rng);
  const Matrix b = WithInfinity(s.k, s.m, &rng);
  ExpectStackedRowsEqualBlockProducts(a, b, {0, 20, 20, 80, 81}, s);
}

TEST(Kernels, SmallMatMulTransAEqualsReferenceBitForBit) {
  Rng rng(21);
  for (const Shape& s : TileShapes()) {
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
  const size_t n = 96;
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

// Race harness: independent caller threads multiply at once, each
// verifying its own product; TSAN (ci/run_tests.sh) checks that the
// kernel shares no state between them.
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
