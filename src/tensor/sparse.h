#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "tensor/matrix.h"

namespace fexiot {

/// \brief Compressed-sparse-row matrix of doubles.
///
/// The sparse companion of the dense Matrix, built for GNN propagation
/// matrices: interaction graphs carry a handful of edges per node, so the
/// n x n normalized adjacency is overwhelmingly structural zeros and every
/// dense propagation product burns O(n^2 d) flops where O(nnz d) suffices.
///
/// Contracts:
///  - Layout: standard CSR. row_ptr() has rows()+1 entries; the nonzeros
///    of row r are values()[row_ptr()[r] .. row_ptr()[r+1]) with column
///    indices col_idx()[...] in strictly ascending order within each row.
///    Ascending column order is load-bearing: it is what makes SpMM
///    reproduce the dense reference kernel's accumulation order bit for
///    bit (see SpMM below and docs/KERNELS.md §2).
///  - Stored values are never 0.0: FromDense and the builders drop exact
///    zeros (both +0.0 and -0.0), mirroring the reference GEMM's
///    zero-skip.
///  - Immutable once built: there are no point mutators. A matrix whose
///    structure changes is rebuilt whole (PrepareGraph, and the serving
///    engine at each snapshot of a home whose edges changed), so const
///    members are safe to call concurrently.
class CsrMatrix {
 public:
  CsrMatrix() : rows_(0), cols_(0), row_ptr_(1, 0) {}

  /// \brief Adopts ready-made CSR arrays. They must already satisfy the
  /// layout contract above (rows+1 offsets from 0 to nnz, strictly
  /// ascending in-range columns per row, no stored zeros); debug builds
  /// assert it. For builders that produce the arrays directly, such as
  /// the explanation scorer's stacked subset rows.
  CsrMatrix(size_t rows, size_t cols, std::vector<size_t> row_ptr,
            std::vector<int> col_idx, std::vector<double> values);

  /// \brief Builds a CSR matrix from a dense one, dropping exact zeros.
  static CsrMatrix FromDense(const Matrix& dense);

  /// \brief Builds from per-row (column, value) lists. Each row's entries
  /// must have strictly ascending column indices; zero values are dropped.
  static CsrMatrix FromRowLists(
      size_t rows, size_t cols,
      const std::vector<std::vector<std::pair<int, double>>>& row_lists);

  /// \brief Stacks \p blocks along the diagonal: the result has
  /// sum(rows) x sum(cols) shape, block b's entry (i, j) landing at
  /// (row_off[b] + i, col_off[b] + j). Row-major concatenation of
  /// ascending-column rows stays ascending, so SpMM over the stacked
  /// matrix accumulates every output row in exactly the order the
  /// per-block SpMM would — block-diagonal batching is bit-identical to
  /// running the blocks one at a time. Null block pointers are rejected
  /// by assert.
  static CsrMatrix BlockDiagonal(const std::vector<const CsrMatrix*>& blocks);

  /// \brief Densifies (testing / diagnostics; exact — no rounding).
  Matrix ToDense() const;

  /// \brief Returns the transpose as a new CSR matrix (columns stay
  /// ascending within each row). O(nnz + rows + cols).
  CsrMatrix Transposed() const;

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return values_.size(); }

  const std::vector<size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<int>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

  /// \brief Number of stored entries in row \p r.
  size_t RowNnz(size_t r) const { return row_ptr_[r + 1] - row_ptr_[r]; }

  /// \brief Heap bytes held by the index + value arrays (the steady-state
  /// footprint a PreparedGraph carries instead of an n x n dense matrix).
  size_t MemoryBytes() const {
    return row_ptr_.capacity() * sizeof(size_t) +
           col_idx_.capacity() * sizeof(int) +
           values_.capacity() * sizeof(double);
  }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<size_t> row_ptr_;  ///< rows()+1 offsets into col_idx/values
  std::vector<int> col_idx_;     ///< ascending within each row
  std::vector<double> values_;   ///< nonzero entries, row-major
};

/// \brief C = A * B with A sparse (CSR) and B, C dense. \p c is resized to
/// a.rows() x b.cols() and fully overwritten; it must not alias \p b.
///
/// Parallelism: output rows are sharded over the process pool via
/// parallel::ForRange once the product is large enough (nnz * b.cols()
/// above a fixed cutoff); small products run inline-serially. The shard
/// split never changes the arithmetic — every output row accumulates its
/// row's nonzeros in ascending column order on exactly one thread — so
/// results are bit-identical for every FEXIOT_THREADS value AND bit-
/// identical to ReferenceMatMul(a.ToDense(), b): the dense kernel skips
/// exact-zero A entries and adds the survivors in the same ascending-
/// column order (docs/KERNELS.md §2 has the full determinism argument).
void SpMM(const CsrMatrix& a, const Matrix& b, Matrix* c);

/// \brief Convenience allocating overload of SpMM.
Matrix SpMM(const CsrMatrix& a, const Matrix& b);

/// \brief C = A^T * B with A sparse (CSR). Implemented as SpMM over
/// Transposed(), whose ascending row order reproduces the scatter order
/// of ReferenceMatMulTransA bit for bit; same parallelism and determinism
/// contracts as SpMM. Allocates the transpose internally — hot paths with
/// a symmetric A (both GNN propagation forms) should call SpMM directly.
void SpMMTransA(const CsrMatrix& a, const Matrix& b, Matrix* c);

/// \brief Convenience allocating overload of SpMMTransA.
Matrix SpMMTransA(const CsrMatrix& a, const Matrix& b);

}  // namespace fexiot
