#pragma once

#include <vector>

#include "tensor/matrix.h"

namespace fexiot {

/// \brief Matrix product C = A * B. Shapes must agree (asserted in debug
/// builds); all operands are dense row-major.
///
/// Large products run through the cache-blocked packed GEMM in
/// tensor/gemm.h with an explicit-SIMD microkernel selected once at
/// startup by CPUID — scalar, AVX2 (6x8 tile) or AVX-512 (8x16 tile),
/// overridable via the FEXIOT_ISA environment variable — and
/// row-block-parallel over the shared parallel::For pool. Small products
/// (under 64^3 flops, where packing overhead dominates — every GNN layer
/// at the paper's widths) run a register-tiled kernel that equals
/// ReferenceMatMul bit for bit. See docs/KERNELS.md for the full
/// architecture.
///
/// Contracts:
///  - Thread-safety: safe to call concurrently from many threads; callers
///    already running on a pool worker compute inline-serially (the
///    nested-parallelism guard in common/parallel.h).
///  - Aliasing: the result is a freshly allocated Matrix, so inputs are
///    never aliased by the output.
///  - Determinism: for a fixed ISA tier, results are bit-identical across
///    thread counts. Across ISA tiers, results agree bit-for-bit between
///    AVX2 and AVX-512 (same fused-multiply-add sequence per element) and
///    within a documented ULP bound against scalar (mul+add vs FMA
///    rounding; see docs/KERNELS.md and tests/test_kernels.cc). The
///    blocked path may differ from the reference kernel by floating-point
///    reassociation across depth blocks when the inner dimension exceeds
///    the depth blocking factor. The small-product path equals the
///    reference kernel bit for bit in every build.
Matrix MatMul(const Matrix& a, const Matrix& b);

/// \brief C = A^T * B without materializing the transpose (A is stored
/// k x n; transposition is absorbed by the pack step). Same dispatch,
/// thread-safety, aliasing and determinism contracts as MatMul.
Matrix MatMulTransA(const Matrix& a, const Matrix& b);

/// \brief C = A * B^T without materializing the transpose (B is stored
/// m x k). Same dispatch, thread-safety, aliasing and determinism
/// contracts as MatMul.
Matrix MatMulTransB(const Matrix& a, const Matrix& b);

/// \brief Reference GEMM kernels: the original naive triple-loop
/// implementations (i-k-j, skipping a(i,k) == 0.0), retained as the
/// parity oracle for MatMul* (tests/test_kernels.cc; the small-product
/// path must match them bit for bit) and as the baseline bench_kernels
/// measures speedup against. Nothing outside tests and benches calls
/// them. Single-threaded and ISA-independent (never dispatched).
Matrix ReferenceMatMul(const Matrix& a, const Matrix& b);
Matrix ReferenceMatMulTransA(const Matrix& a, const Matrix& b);
Matrix ReferenceMatMulTransB(const Matrix& a, const Matrix& b);

/// \brief In-place variants of MatMul/MatMulTransA/MatMulTransB writing
/// into a caller-owned output: \p c is resized (capacity is never shrunk,
/// so a workspace matrix reused across calls stops allocating once warm)
/// and fully overwritten. Same dispatch and bit-for-bit the same results
/// as the allocating forms. \p c must not alias \p a or \p b.
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* c);
void MatMulTransAInto(const Matrix& a, const Matrix& b, Matrix* c);
void MatMulTransBInto(const Matrix& a, const Matrix& b, Matrix* c);

/// \brief Row-blocked product for batched block-diagonal inference:
/// computes C = A * B where A's rows are partitioned into horizontal
/// blocks by \p row_offsets (B+1 ascending entries, front() == 0,
/// back() == a.rows()), and each block [r0, r1) is multiplied as if it
/// were a standalone n_b x k matrix. Every block dispatches on its OWN
/// shape against the same small-product threshold MatMulInto uses, and a
/// small block runs the same register-tiled kernel, so block b's output
/// rows are bit-identical to MatMulInto(rows r0..r1 of A, B) — stacking
/// requests into a batch never flips a block from the small-product
/// kernel to the blocked GEMM. Same aliasing / thread-safety contracts
/// as MatMulInto.
void MatMulBlocksInto(const Matrix& a, const Matrix& b,
                      const std::vector<size_t>& row_offsets, Matrix* c);

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

/// \brief Row-wise softmax (numerically stabilized).
Matrix SoftmaxRows(const Matrix& m);

/// \brief Column-wise mean as a 1 x cols matrix.
Matrix ColumnMean(const Matrix& m);
/// \brief Column-wise sum as a 1 x cols matrix.
Matrix ColumnSum(const Matrix& m);
/// \brief Row-wise L2 normalization (rows with ~0 norm left untouched).
Matrix L2NormalizeRows(const Matrix& m);

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
