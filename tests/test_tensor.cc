#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "common/rng.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace fexiot {
namespace {

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 1.5);
  m.At(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, FromRowsAndTranspose) {
  const Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  const Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t.At(2, 1), 6.0);
}

TEST(Matrix, Identity) {
  const Matrix i = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(i.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i.At(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(i.Sum(), 3.0);
}

TEST(Matrix, ArithmeticOps) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  const Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum.At(1, 1), 12.0);
  const Matrix diff = sum - b;
  EXPECT_DOUBLE_EQ(diff.At(0, 0), 1.0);
  a *= 2.0;
  EXPECT_DOUBLE_EQ(a.At(1, 0), 6.0);
}

TEST(Matrix, RowSetGet) {
  Matrix m(2, 3);
  m.SetRow(1, {7, 8, 9});
  const auto row = m.Row(1);
  EXPECT_EQ(row.size(), 3u);
  EXPECT_DOUBLE_EQ(row[2], 9.0);
}

TEST(Matrix, NormAndHadamard) {
  Matrix a = Matrix::FromRows({{3, 4}});
  EXPECT_DOUBLE_EQ(a.Norm(), 5.0);
}

TEST(Ops, MatMulAgainstHandComputed) {
  const Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  const Matrix c = MatMul(a, b);
  EXPECT_DOUBLE_EQ(c.At(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c.At(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c.At(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c.At(1, 1), 50.0);
}

TEST(Ops, TransposedMatMulVariantsMatchExplicitTranspose) {
  Rng rng(1);
  const Matrix a = Matrix::RandomNormal(4, 3, 1.0, &rng);
  const Matrix b = Matrix::RandomNormal(4, 5, 1.0, &rng);
  const Matrix expected = MatMul(a.Transposed(), b);
  const Matrix got = MatMulTransA(a, b);
  ASSERT_TRUE(expected.SameShape(got));
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(expected.data()[i], got.data()[i], 1e-12);
  }
  const Matrix c = Matrix::RandomNormal(5, 3, 1.0, &rng);
  const Matrix expected2 = MatMul(a, c.Transposed());
  const Matrix got2 = MatMulTransB(a, c);
  ASSERT_TRUE(expected2.SameShape(got2));
  for (size_t i = 0; i < expected2.size(); ++i) {
    EXPECT_NEAR(expected2.data()[i], got2.data()[i], 1e-12);
  }
}

TEST(Ops, ReluAndBackward) {
  const Matrix x = Matrix::FromRows({{-1, 2}, {0, -3}});
  const Matrix r = Relu(x);
  EXPECT_DOUBLE_EQ(r.At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(r.At(0, 1), 2.0);
  const Matrix g = Matrix::FromRows({{5, 5}, {5, 5}});
  const Matrix back = ReluBackward(g, x);
  EXPECT_DOUBLE_EQ(back.At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(back.At(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(back.At(1, 0), 0.0);  // relu'(0) = 0 convention
}

TEST(Ops, ColumnMeanSum) {
  const Matrix x = Matrix::FromRows({{1, 2}, {3, 4}});
  const Matrix mean = ColumnMean(x);
  EXPECT_DOUBLE_EQ(mean.At(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(mean.At(0, 1), 3.0);
  const Matrix sum = ColumnSum(x);
  EXPECT_DOUBLE_EQ(sum.At(0, 0), 4.0);
}

TEST(Ops, VectorHelpers) {
  const std::vector<double> a = {1, 0};
  const std::vector<double> b = {0, 1};
  EXPECT_DOUBLE_EQ(Dot(a, b), 0.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, a), 1.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, b), 0.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, b), std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(CosineSimilarity({0, 0}, a), 0.0);  // zero guard
}

TEST(Ops, SolveSpdRecoversKnownSolution) {
  // A = [[4,1],[1,3]], x = [1,2] => b = [6,7].
  const Matrix a = Matrix::FromRows({{4, 1}, {1, 3}});
  const std::vector<double> x = SolveSpd(a, {6, 7}, 0.0);
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 2.0, 1e-9);
}

TEST(Ops, SolveSpdHandlesNearSingularWithRidge) {
  const Matrix a = Matrix::FromRows({{1, 1}, {1, 1}});
  const std::vector<double> x = SolveSpd(a, {2, 2}, 1e-8);
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0] + x[1], 2.0, 1e-2);
}

TEST(Ops, WeightedLeastSquaresRecoversLinearModel) {
  // y = 2 x0 - 1 x1 + 0.5, exact fit expected.
  Rng rng(7);
  const size_t n = 40;
  Matrix x(n, 3);
  std::vector<double> y(n), w(n, 1.0);
  for (size_t i = 0; i < n; ++i) {
    x.At(i, 0) = 1.0;  // intercept column
    x.At(i, 1) = rng.Normal();
    x.At(i, 2) = rng.Normal();
    y[i] = 0.5 + 2.0 * x.At(i, 1) - 1.0 * x.At(i, 2);
  }
  const std::vector<double> beta = WeightedLeastSquares(x, y, w, 1e-10);
  ASSERT_EQ(beta.size(), 3u);
  EXPECT_NEAR(beta[0], 0.5, 1e-5);
  EXPECT_NEAR(beta[1], 2.0, 1e-5);
  EXPECT_NEAR(beta[2], -1.0, 1e-5);
}

TEST(Ops, WeightedLeastSquaresRespectsWeights) {
  // Two inconsistent points; the heavier one dominates.
  Matrix x = Matrix::FromRows({{1.0}, {1.0}});
  const std::vector<double> y = {0.0, 10.0};
  const std::vector<double> w = {1.0, 1e6};
  const std::vector<double> beta = WeightedLeastSquares(x, y, w, 1e-12);
  ASSERT_EQ(beta.size(), 1u);
  EXPECT_NEAR(beta[0], 10.0, 1e-3);
}

// Property: (A * B)^T == B^T * A^T, through MatMul.
TEST(Ops, MatMulTransposeProperty) {
  Rng rng(21);
  for (const auto& [n, k, m] :
       {std::array<size_t, 3>{3, 4, 5}, std::array<size_t, 3>{70, 90, 80},
        std::array<size_t, 3>{1, 129, 65}}) {
    const Matrix a = Matrix::RandomNormal(n, k, 1.0, &rng);
    const Matrix b = Matrix::RandomNormal(k, m, 1.0, &rng);
    const Matrix lhs = MatMul(a, b).Transposed();
    const Matrix rhs = MatMul(b.Transposed(), a.Transposed());
    ASSERT_TRUE(lhs.SameShape(rhs));
    for (size_t i = 0; i < lhs.size(); ++i) {
      EXPECT_NEAR(lhs.data()[i], rhs.data()[i], 1e-9);
    }
  }
}

// Property: the three MatMul variants agree with explicit transposition
// at sizes larger than the paper's.
TEST(Ops, TransVariantsConsistentAtLargeSizes) {
  Rng rng(22);
  const size_t n = 72, k = 68, m = 75;
  const Matrix a = Matrix::RandomNormal(n, k, 1.0, &rng);
  const Matrix b = Matrix::RandomNormal(k, m, 1.0, &rng);
  const Matrix base = MatMul(a, b);
  const Matrix via_ta = MatMulTransA(a.Transposed(), b);
  const Matrix via_tb = MatMulTransB(a, b.Transposed());
  ASSERT_TRUE(base.SameShape(via_ta));
  ASSERT_TRUE(base.SameShape(via_tb));
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_NEAR(base.data()[i], via_ta.data()[i], 1e-9);
    EXPECT_NEAR(base.data()[i], via_tb.data()[i], 1e-9);
  }
}

// Property: MatMul is linear in its first argument.
TEST(Ops, MatMulLinearity) {
  Rng rng(23);
  const Matrix a1 = Matrix::RandomNormal(66, 80, 1.0, &rng);
  const Matrix a2 = Matrix::RandomNormal(66, 80, 1.0, &rng);
  const Matrix b = Matrix::RandomNormal(80, 66, 1.0, &rng);
  const Matrix sum_first = MatMul(a1 + a2, b);
  const Matrix sum_after = MatMul(a1, b) + MatMul(a2, b);
  for (size_t i = 0; i < sum_first.size(); ++i) {
    EXPECT_NEAR(sum_first.data()[i], sum_after.data()[i], 1e-9);
  }
}

// Property: Glorot init keeps values within the theoretical limit.
TEST(Matrix, GlorotUniformWithinLimit) {
  Rng rng(3);
  const size_t rows = 20, cols = 30;
  const Matrix m = Matrix::GlorotUniform(rows, cols, &rng);
  const double limit = std::sqrt(6.0 / (rows + cols));
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::fabs(m.data()[i]), limit + 1e-12);
  }
}

}  // namespace
}  // namespace fexiot
