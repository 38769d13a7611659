#include "tensor/ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "tensor/gemm.h"

namespace fexiot {

namespace {

// Dot-product core of ReferenceMatMulTransB and MatMulTransBInto: writes
// every element of the a.rows() x b.rows() output \p c.
void MatMulTransBRows(const Matrix& a, const Matrix& b, Matrix* c) {
  const size_t n = a.rows(), k = a.cols(), m = b.rows();
  for (size_t i = 0; i < n; ++i) {
    const double* arow = a.RowPtr(i);
    double* crow = c->RowPtr(i);
    for (size_t j = 0; j < m; ++j) {
      const double* brow = b.RowPtr(j);
      double s = 0.0;
      for (size_t p = 0; p < k; ++p) s += arow[p] * brow[p];
      crow[j] = s;
    }
  }
}

}  // namespace

Matrix ReferenceMatMul(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  const size_t n = a.rows(), k = a.cols(), m = b.cols();
  Matrix c(n, m);
  // i-k-j loop order keeps the inner loop contiguous in both B and C.
  for (size_t i = 0; i < n; ++i) {
    double* crow = c.RowPtr(i);
    const double* arow = a.RowPtr(i);
    for (size_t p = 0; p < k; ++p) {
      const double av = arow[p];
      if (av == 0.0) continue;
      const double* brow = b.RowPtr(p);
      for (size_t j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Matrix ReferenceMatMulTransA(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  const size_t n = a.rows(), k = a.cols(), m = b.cols();
  Matrix c(k, m);
  for (size_t i = 0; i < n; ++i) {
    const double* arow = a.RowPtr(i);
    const double* brow = b.RowPtr(i);
    for (size_t p = 0; p < k; ++p) {
      const double av = arow[p];
      if (av == 0.0) continue;
      double* crow = c.RowPtr(p);
      for (size_t j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Matrix ReferenceMatMulTransB(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.cols());
  Matrix c(a.rows(), b.rows());
  MatMulTransBRows(a, b, &c);
  return c;
}

namespace {

// The dense product kernel. A(i, p) is a[i * a_rs + p * a_cs], so the
// same code serves A (a_rs = lda, a_cs = 1) and A^T (a_rs = 1,
// a_cs = lda); B and C are row-major with strides ldb and ldc.
//
// One call computes an R x W tile of C, kept in local accumulators for
// the whole k loop (the i-k-j reference reloads and re-stores the C row
// on every k step). Each element still accumulates `acc += a(i,p) *
// b(p,j)` from +0.0 over ascending p and skips a(i,p) == 0.0, exactly
// like ReferenceMatMul/ReferenceMatMulTransA. Both live in this file and
// get the same floating-point flags, so a multiply-add the compiler
// contracts into an FMA is contracted in both, and the results match bit
// for bit.
//
// The unrolled j loop is vectorized across the tile's columns; the p loop
// must stay a sequence of multiply-adds. Left to itself, GCC turns a
// one-column tile over contiguous operands (m == 1) into an in-order
// vector reduction over p: a vector multiply, then scalar adds, which
// rounds twice where the reference's FMA rounds once. Hence no loop
// vectorization here.
template <size_t R, size_t W>
[[gnu::optimize("no-tree-loop-vectorize")]] void SmallTile(
    const double* a, size_t a_rs, size_t a_cs, const double* b, size_t ldb,
    double* c, size_t ldc, size_t k) {
  double acc[R][W] = {};
  for (size_t p = 0; p < k; ++p) {
    const double* brow = b + p * ldb;
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      const double av = a[r * a_rs + p * a_cs];
      if (av == 0.0) continue;
#pragma GCC unroll 24
      for (size_t j = 0; j < W; ++j) acc[r][j] += av * brow[j];
    }
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) {
#pragma GCC unroll 24
    for (size_t j = 0; j < W; ++j) c[r * ldc + j] = acc[r][j];
  }
}

// All n rows of one W-wide column strip, four rows per tile.
template <size_t W>
void SmallStrip(size_t n, size_t k, const double* a, size_t a_rs,
                size_t a_cs, const double* b, size_t ldb, double* c,
                size_t ldc) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    SmallTile<4, W>(a + i * a_rs, a_rs, a_cs, b, ldb, c + i * ldc, ldc, k);
  }
  const double* ai = a + i * a_rs;
  double* ci = c + i * ldc;
  switch (n - i) {
    case 3: SmallTile<3, W>(ai, a_rs, a_cs, b, ldb, ci, ldc, k); break;
    case 2: SmallTile<2, W>(ai, a_rs, a_cs, b, ldb, ci, ldc, k); break;
    case 1: SmallTile<1, W>(ai, a_rs, a_cs, b, ldb, ci, ldc, k); break;
    default: break;
  }
}

// C (n x m) = op(A) (n x k) * B (k x m); overwrites every element of C.
// The strip width is picked from the columns left, so the workloads'
// hidden widths run in one pass (12: federate, 24: the audits) and 64
// runs as 24 + 24 + 16. A 4 x 24 tile holds 24 of the 32 vector
// registers of an AVX-512 core.
//
// Rows go in panels of two 4-row tiles: every strip re-reads the panel's
// A rows, which stay in L1 (8 x 308 doubles is 19 KB), where rows stacked
// from many graphs would otherwise stream all of A once per strip. A
// panel is whole tiles, so it changes only the order tiles run in, never
// a tile's rows or an element's chain.
void SmallMatMul(size_t n, size_t k, size_t m, const double* a, size_t a_rs,
                 size_t a_cs, const double* b, size_t ldb, double* c,
                 size_t ldc) {
  constexpr size_t kPanelRows = 8;
  for (size_t i = 0; i < n; i += kPanelRows) {
    const size_t rows = std::min(kPanelRows, n - i);
    const double* ai = a + i * a_rs;
    double* ci = c + i * ldc;
    for (size_t j = 0; j < m;) {
      const size_t left = m - j;
      const double* bj = b + j;
      double* cj = ci + j;
      if (left >= 24) {
        SmallStrip<24>(rows, k, ai, a_rs, a_cs, bj, ldb, cj, ldc);
        j += 24;
      } else if (left >= 16) {
        SmallStrip<16>(rows, k, ai, a_rs, a_cs, bj, ldb, cj, ldc);
        j += 16;
      } else if (left >= 12) {
        SmallStrip<12>(rows, k, ai, a_rs, a_cs, bj, ldb, cj, ldc);
        j += 12;
      } else if (left >= 8) {
        SmallStrip<8>(rows, k, ai, a_rs, a_cs, bj, ldb, cj, ldc);
        j += 8;
      } else if (left >= 4) {
        SmallStrip<4>(rows, k, ai, a_rs, a_cs, bj, ldb, cj, ldc);
        j += 4;
      } else {
        SmallStrip<1>(rows, k, ai, a_rs, a_cs, bj, ldb, cj, ldc);
        j += 1;
      }
    }
  }
}

}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatMulInto(a, b, &c);
  return c;
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatMulTransAInto(a, b, &c);
  return c;
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatMulTransBInto(a, b, &c);
  return c;
}

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* c) {
  assert(a.cols() == b.rows());
  assert(c != &a && c != &b && "MatMulInto output must not alias an input");
  const size_t n = a.rows(), k = a.cols(), m = b.cols();
  c->ResizeForOverwrite(n, m);
  SmallMatMul(n, k, m, a.data(), k, 1, b.data(), m, c->data(), m);
}

void MatMulTransAInto(const Matrix& a, const Matrix& b, Matrix* c) {
  assert(a.rows() == b.rows());
  assert(c != &a && c != &b && "MatMulTransAInto output must not alias an input");
  const size_t n = a.cols(), k = a.rows(), m = b.cols();
  c->ResizeForOverwrite(n, m);
  SmallMatMul(n, k, m, a.data(), 1, n, b.data(), m, c->data(), m);
}

void MatMulTransBInto(const Matrix& a, const Matrix& b, Matrix* c) {
  assert(a.cols() == b.cols());
  assert(c != &a && c != &b && "MatMulTransBInto output must not alias an input");
  c->ResizeForOverwrite(a.rows(), b.rows());
  MatMulTransBRows(a, b, c);
}

void AddBiasRow(Matrix* m, const Matrix& bias) {
  assert(bias.rows() == 1 && bias.cols() == m->cols());
  for (size_t r = 0; r < m->rows(); ++r) {
    double* row = m->RowPtr(r);
    const double* b = bias.RowPtr(0);
    for (size_t c = 0; c < m->cols(); ++c) row[c] += b[c];
  }
}

Matrix Relu(const Matrix& m) {
  Matrix out = m;
  for (size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = std::max(0.0, out.data()[i]);
  }
  return out;
}

Matrix ReluBackward(const Matrix& grad, const Matrix& pre_activation) {
  assert(grad.SameShape(pre_activation));
  Matrix out = grad;
  for (size_t i = 0; i < out.size(); ++i) {
    if (pre_activation.data()[i] <= 0.0) out.data()[i] = 0.0;
  }
  return out;
}

void ReluInto(const Matrix& m, Matrix* out) {
  assert(out != &m);
  out->ResizeForOverwrite(m.rows(), m.cols());
  for (size_t i = 0; i < m.size(); ++i) {
    out->data()[i] = std::max(0.0, m.data()[i]);
  }
}

void ReluBackwardInto(const Matrix& grad, const Matrix& pre_activation,
                      Matrix* out) {
  assert(grad.SameShape(pre_activation));
  assert(out != &grad && out != &pre_activation);
  out->ResizeForOverwrite(grad.rows(), grad.cols());
  for (size_t i = 0; i < grad.size(); ++i) {
    out->data()[i] = pre_activation.data()[i] <= 0.0 ? 0.0 : grad.data()[i];
  }
}

void ColumnSumInto(const Matrix& m, Matrix* out) {
  assert(out != &m);
  out->Resize(1, m.cols());  // zeroed accumulators
  for (size_t r = 0; r < m.rows(); ++r) {
    const double* row = m.RowPtr(r);
    for (size_t c = 0; c < m.cols(); ++c) out->At(0, c) += row[c];
  }
}

Matrix Sigmoid(const Matrix& m) {
  Matrix out = m;
  for (size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = 1.0 / (1.0 + std::exp(-out.data()[i]));
  }
  return out;
}

Matrix ColumnMean(const Matrix& m) {
  Matrix out = ColumnSum(m);
  if (m.rows() > 0) out *= 1.0 / static_cast<double>(m.rows());
  return out;
}

Matrix ColumnSum(const Matrix& m) {
  Matrix out(1, m.cols());
  for (size_t r = 0; r < m.rows(); ++r) {
    const double* row = m.RowPtr(r);
    for (size_t c = 0; c < m.cols(); ++c) out.At(0, c) += row[c];
  }
  return out;
}

double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b) {
  return std::sqrt(SquaredDistance(a, b));
}

double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b) {
  assert(a.size() == b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double CosineSimilarity(const std::vector<double>& a,
                        const std::vector<double>& b) {
  return CosineSimilarity(a, b, VectorNorm(a), VectorNorm(b));
}

double CosineSimilarity(const std::vector<double>& a,
                        const std::vector<double>& b, double norm_a,
                        double norm_b) {
  if (norm_a < 1e-12 || norm_b < 1e-12) return 0.0;
  return Dot(a, b) / (norm_a * norm_b);
}

double VectorNorm(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

namespace {

// In-place Cholesky A = L L^T (lower triangle of `a` becomes L).
// Returns false if the matrix is not positive definite.
bool CholeskyInPlace(Matrix* a) {
  const size_t n = a->rows();
  for (size_t j = 0; j < n; ++j) {
    double d = a->At(j, j);
    for (size_t k = 0; k < j; ++k) d -= a->At(j, k) * a->At(j, k);
    if (d <= 0.0) return false;
    const double ljj = std::sqrt(d);
    a->At(j, j) = ljj;
    for (size_t i = j + 1; i < n; ++i) {
      double s = a->At(i, j);
      for (size_t k = 0; k < j; ++k) s -= a->At(i, k) * a->At(j, k);
      a->At(i, j) = s / ljj;
    }
  }
  return true;
}

}  // namespace

std::vector<double> SolveSpd(Matrix a, std::vector<double> b, double ridge) {
  assert(a.rows() == a.cols() && a.rows() == b.size());
  const size_t n = a.rows();
  Matrix l;
  // Escalate the ridge until the factorization succeeds (or give up).
  double r = std::max(ridge, 1e-12);
  bool ok = false;
  for (int attempt = 0; attempt < 8 && !ok; ++attempt, r *= 100.0) {
    l = a;
    for (size_t i = 0; i < n; ++i) l.At(i, i) += r;
    ok = CholeskyInPlace(&l);
  }
  if (!ok) return {};
  // Forward solve L y = b.
  for (size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (size_t k = 0; k < i; ++k) s -= l.At(i, k) * b[k];
    b[i] = s / l.At(i, i);
  }
  // Backward solve L^T x = y.
  for (size_t ii = n; ii-- > 0;) {
    double s = b[ii];
    for (size_t k = ii + 1; k < n; ++k) s -= l.At(k, ii) * b[k];
    b[ii] = s / l.At(ii, ii);
  }
  return b;
}

std::vector<double> WeightedLeastSquares(const Matrix& x,
                                         const std::vector<double>& y,
                                         const std::vector<double>& w,
                                         double ridge) {
  assert(x.rows() == y.size() && y.size() == w.size());
  const size_t n = x.rows(), d = x.cols();
  Matrix xtwx(d, d);
  std::vector<double> xtwy(d, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double wi = w[i];
    if (wi <= 0.0) continue;
    const double* row = x.RowPtr(i);
    for (size_t a = 0; a < d; ++a) {
      const double wa = wi * row[a];
      xtwy[a] += wa * y[i];
      for (size_t b = a; b < d; ++b) xtwx.At(a, b) += wa * row[b];
    }
  }
  // Mirror the upper triangle.
  for (size_t a = 0; a < d; ++a) {
    for (size_t b = a + 1; b < d; ++b) xtwx.At(b, a) = xtwx.At(a, b);
  }
  return SolveSpd(std::move(xtwx), std::move(xtwy), ridge);
}

namespace gemm {

// The vector ISA this file, and with it the kernel, was compiled for.
const KernelInfo& ActiveKernel() {
  static constexpr KernelInfo kKernel{
#if defined(__AVX512F__)
      "avx512"
#elif defined(__AVX2__)
      "avx2"
#else
      "scalar"
#endif
  };
  return kKernel;
}

}  // namespace gemm

}  // namespace fexiot
