#include "tensor/sparse.h"

#include <algorithm>
#include <cassert>

#include "common/parallel.h"

namespace fexiot {

namespace {

// Below this many effective flops (2 * nnz * b.cols()) the pool dispatch
// costs more than the multiply; run inline-serially. The cutoff depends
// only on problem shape, never on the thread count, so it cannot break
// the cross-thread-count determinism contract.
constexpr size_t kSpmmSerialFlops = 32 * 1024;

}  // namespace

CsrMatrix::CsrMatrix(size_t rows, size_t cols, std::vector<size_t> row_ptr,
                     std::vector<int> col_idx, std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
#ifndef NDEBUG
  assert(row_ptr_.size() == rows_ + 1 && row_ptr_.front() == 0 &&
         row_ptr_.back() == values_.size() &&
         col_idx_.size() == values_.size());
  for (size_t r = 0; r < rows_; ++r) {
    assert(row_ptr_[r] <= row_ptr_[r + 1]);
    for (size_t idx = row_ptr_[r]; idx < row_ptr_[r + 1]; ++idx) {
      assert(col_idx_[idx] >= 0 && static_cast<size_t>(col_idx_[idx]) < cols_);
      assert(idx == row_ptr_[r] || col_idx_[idx - 1] < col_idx_[idx]);
      assert(values_[idx] != 0.0);
    }
  }
#endif
}

CsrMatrix CsrMatrix::FromDense(const Matrix& dense) {
  CsrMatrix out;
  out.rows_ = dense.rows();
  out.cols_ = dense.cols();
  out.row_ptr_.assign(out.rows_ + 1, 0);
  for (size_t r = 0; r < out.rows_; ++r) {
    const double* row = dense.RowPtr(r);
    for (size_t c = 0; c < out.cols_; ++c) {
      // Mirrors the reference GEMM's zero-skip: -0.0 == 0.0 is true, so
      // both zero signs are structural.
      if (row[c] == 0.0) continue;
      out.col_idx_.push_back(static_cast<int>(c));
      out.values_.push_back(row[c]);
    }
    out.row_ptr_[r + 1] = out.values_.size();
  }
  return out;
}

CsrMatrix CsrMatrix::FromRowLists(
    size_t rows, size_t cols,
    const std::vector<std::vector<std::pair<int, double>>>& row_lists) {
  assert(row_lists.size() == rows);
  CsrMatrix out;
  out.rows_ = rows;
  out.cols_ = cols;
  out.row_ptr_.assign(rows + 1, 0);
  size_t nnz = 0;
  for (const auto& row : row_lists) nnz += row.size();
  out.col_idx_.reserve(nnz);
  out.values_.reserve(nnz);
  for (size_t r = 0; r < rows; ++r) {
    int prev = -1;
    for (const auto& [c, v] : row_lists[r]) {
      assert(c > prev && static_cast<size_t>(c) < cols &&
             "FromRowLists requires strictly ascending in-range columns");
      prev = c;
      if (v == 0.0) continue;
      out.col_idx_.push_back(c);
      out.values_.push_back(v);
    }
    out.row_ptr_[r + 1] = out.values_.size();
  }
  return out;
}

CsrMatrix CsrMatrix::BlockDiagonal(const std::vector<const CsrMatrix*>& blocks) {
  CsrMatrix out;
  size_t total_nnz = 0;
  for (const CsrMatrix* b : blocks) {
    assert(b != nullptr && "BlockDiagonal requires non-null blocks");
    out.rows_ += b->rows_;
    out.cols_ += b->cols_;
    total_nnz += b->nnz();
  }
  out.row_ptr_.reserve(out.rows_ + 1);
  out.col_idx_.reserve(total_nnz);
  out.values_.reserve(total_nnz);
  size_t col_off = 0;
  for (const CsrMatrix* b : blocks) {
    const size_t nnz_off = out.values_.size();
    // Skip each block's leading 0 offset: out.row_ptr_ already ends with
    // the running nnz, which doubles as this block's row 0 start.
    for (size_t r = 1; r <= b->rows_; ++r) {
      out.row_ptr_.push_back(nnz_off + b->row_ptr_[r]);
    }
    for (int c : b->col_idx_) {
      out.col_idx_.push_back(c + static_cast<int>(col_off));
    }
    out.values_.insert(out.values_.end(), b->values_.begin(),
                       b->values_.end());
    col_off += b->cols_;
  }
  return out;
}

Matrix CsrMatrix::ToDense() const {
  Matrix out(rows_, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    double* row = out.RowPtr(r);
    for (size_t idx = row_ptr_[r]; idx < row_ptr_[r + 1]; ++idx) {
      row[static_cast<size_t>(col_idx_[idx])] = values_[idx];
    }
  }
  return out;
}

CsrMatrix CsrMatrix::Transposed() const {
  CsrMatrix out;
  out.rows_ = cols_;
  out.cols_ = rows_;
  out.row_ptr_.assign(cols_ + 1, 0);
  out.col_idx_.resize(nnz());
  out.values_.resize(nnz());
  // Counting sort by column: count, prefix-sum, scatter. Scattering in
  // row-major source order leaves each output row's columns (= source row
  // indices) ascending, which SpMMTransA's determinism contract needs.
  for (int c : col_idx_) ++out.row_ptr_[static_cast<size_t>(c) + 1];
  for (size_t c = 0; c < cols_; ++c) out.row_ptr_[c + 1] += out.row_ptr_[c];
  std::vector<size_t> cursor(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t idx = row_ptr_[r]; idx < row_ptr_[r + 1]; ++idx) {
      const size_t dst = cursor[static_cast<size_t>(col_idx_[idx])]++;
      out.col_idx_[dst] = static_cast<int>(r);
      out.values_[dst] = values_[idx];
    }
  }
  return out;
}

void SpMM(const CsrMatrix& a, const Matrix& b, Matrix* c) {
  assert(a.cols() == b.rows());
  assert(c != &b && "SpMM output must not alias its dense input");
  c->ResizeForOverwrite(a.rows(), b.cols());
  const size_t m = b.cols();
  const size_t* row_ptr = a.row_ptr().data();
  const int* col = a.col_idx().data();
  const double* val = a.values().data();
  auto rows_body = [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      double* crow = c->RowPtr(r);
      // The resize leaves stale workspace content; clear the row so every
      // accumulator starts from exact +0.0, matching the dense kernel.
      std::fill(crow, crow + m, 0.0);
      for (size_t idx = row_ptr[r]; idx < row_ptr[r + 1]; ++idx) {
        const double av = val[idx];
        const double* brow = b.RowPtr(static_cast<size_t>(col[idx]));
        for (size_t j = 0; j < m; ++j) crow[j] += av * brow[j];
      }
    }
  };
  if (2 * a.nnz() * m < kSpmmSerialFlops) {
    rows_body(0, a.rows());
  } else {
    parallel::ForRange(a.rows(), rows_body);
  }
}

Matrix SpMM(const CsrMatrix& a, const Matrix& b) {
  Matrix c;
  SpMM(a, b, &c);
  return c;
}

void SpMMTransA(const CsrMatrix& a, const Matrix& b, Matrix* c) {
  assert(a.rows() == b.rows());
  SpMM(a.Transposed(), b, c);
}

Matrix SpMMTransA(const CsrMatrix& a, const Matrix& b) {
  Matrix c;
  SpMMTransA(a, b, &c);
  return c;
}

}  // namespace fexiot
