#pragma once

#include <vector>

#include "tensor/matrix.h"

namespace fexiot {

/// \brief Matrix product C = A * B. Shapes must agree (asserted in debug
/// builds); all operands are dense row-major.
///
/// Every product runs one register-tiled kernel: a 4-row tile of C stays
/// in local accumulators for the whole inner dimension. The paper's GNN
/// layers are a few nodes by 308-wide features, where this kernel is
/// 2–5x the i-k-j reference. See docs/KERNELS.md.
///
/// Contracts:
///  - Thread-safety: safe to call concurrently from many threads. The
///    kernel is serial: it never fans out over the parallel::For pool.
///  - Aliasing: the result is a freshly allocated Matrix, so inputs are
///    never aliased by the output.
///  - Determinism: the result equals ReferenceMatMul bit for bit at every
///    shape and in every build: each element accumulates the same
///    zero-skipped products in the same ascending order, with the same
///    floating-point flags (tests/test_kernels.cc). So it is also the same
///    for every thread count.
///  - Row independence: row i of C depends only on row i of A and on B,
///    so rows stacked from several graphs get the bits each would get in
///    its own product (docs/KERNELS.md §3). Every batched forward relies
///    on it.
Matrix MatMul(const Matrix& a, const Matrix& b);

/// \brief C = A^T * B without materializing the transpose (A is stored
/// k x n; the kernel reads it with swapped strides). Same thread-safety,
/// aliasing and determinism contracts as MatMul, against
/// ReferenceMatMulTransA.
Matrix MatMulTransA(const Matrix& a, const Matrix& b);

/// \brief C = A * B^T without materializing the transpose (B is stored
/// m x k): one dot product per element, the same loop as
/// ReferenceMatMulTransB, so the bits are the same. Same thread-safety and
/// aliasing contracts as MatMul.
Matrix MatMulTransB(const Matrix& a, const Matrix& b);

/// \brief Reference GEMM kernels: the original naive triple-loop
/// implementations (i-k-j, skipping a(i,k) == 0.0), retained as the
/// parity oracle for MatMul* (tests/test_kernels.cc: the results must
/// match them bit for bit) and as the baseline bench_kernels measures
/// speedup against. Nothing outside tests and benches calls them.
/// Single-threaded.
Matrix ReferenceMatMul(const Matrix& a, const Matrix& b);
Matrix ReferenceMatMulTransA(const Matrix& a, const Matrix& b);
Matrix ReferenceMatMulTransB(const Matrix& a, const Matrix& b);

/// \brief In-place variants of MatMul/MatMulTransA/MatMulTransB writing
/// into a caller-owned output: \p c is resized (capacity is never shrunk,
/// so a workspace matrix reused across calls stops allocating once warm)
/// and fully overwritten. Bit for bit the same results as the allocating
/// forms. \p c must not alias \p a or \p b.
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* c);
void MatMulTransAInto(const Matrix& a, const Matrix& b, Matrix* c);
void MatMulTransBInto(const Matrix& a, const Matrix& b, Matrix* c);

/// \brief Adds a 1 x cols bias row to every row of \p m, in place.
/// \p bias must not alias \p m (use a copy to broadcast a row of m).
void AddBiasRow(Matrix* m, const Matrix& bias);

/// \brief Element-wise max(x, 0).
Matrix Relu(const Matrix& m);
/// \brief Gradient mask: grad * 1[pre > 0].
Matrix ReluBackward(const Matrix& grad, const Matrix& pre_activation);

/// \brief In-place counterparts used by the allocation-free GNN hot path
/// (gnn/gnn_model.h): \p out is resized without shrinking capacity and
/// fully overwritten; it must not alias the inputs. Values are bit-equal
/// to the allocating forms.
void ReluInto(const Matrix& m, Matrix* out);
void ReluBackwardInto(const Matrix& grad, const Matrix& pre_activation,
                      Matrix* out);
/// \brief Column-wise sum into a reusable 1 x cols output (same contract).
void ColumnSumInto(const Matrix& m, Matrix* out);

/// \brief Element-wise logistic sigmoid.
Matrix Sigmoid(const Matrix& m);

/// \brief Column-wise mean as a 1 x cols matrix.
Matrix ColumnMean(const Matrix& m);
/// \brief Column-wise sum as a 1 x cols matrix.
Matrix ColumnSum(const Matrix& m);

/// \brief Euclidean distance between two equal-length vectors.
double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b);
/// \brief Squared Euclidean distance.
double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b);
/// \brief Dot product.
double Dot(const std::vector<double>& a, const std::vector<double>& b);
/// \brief Cosine similarity (0 when either vector is ~0).
double CosineSimilarity(const std::vector<double>& a,
                        const std::vector<double>& b);
/// \brief Cosine similarity given the two norms (`VectorNorm(a)`,
/// `VectorNorm(b)`), for callers that reuse each norm across many pairs.
double CosineSimilarity(const std::vector<double>& a,
                        const std::vector<double>& b, double norm_a,
                        double norm_b);
/// \brief L2 norm of a vector.
double VectorNorm(const std::vector<double>& v);

/// All element-wise and reduction helpers above are single-threaded pure
/// functions returning fresh matrices (no aliasing with their inputs) and
/// are safe to call concurrently, including from parallel::For bodies.

/// \brief Solves the symmetric positive-definite system A x = b via
/// Cholesky. Adds \p ridge to the diagonal for conditioning.
/// Returns empty vector on failure (A not SPD even after ridging).
std::vector<double> SolveSpd(Matrix a, std::vector<double> b,
                             double ridge = 1e-8);

/// \brief Weighted least squares: minimizes sum_i w_i (x_i^T beta - y_i)^2.
/// \param x n x d design matrix
/// \param y n targets
/// \param w n non-negative weights
/// \returns d coefficients (empty on failure).
std::vector<double> WeightedLeastSquares(const Matrix& x,
                                         const std::vector<double>& y,
                                         const std::vector<double>& w,
                                         double ridge = 1e-6);

}  // namespace fexiot
