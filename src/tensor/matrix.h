#pragma once

#include <cassert>
#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.h"

namespace fexiot {

/// \brief Dense row-major matrix of doubles.
///
/// The single numeric container used by the NLP embeddings, classical ML
/// models, GNN layers and the SHAP solver. Kept deliberately simple: no
/// views, no broadcasting — shapes are always explicit, and shape mismatches
/// assert in debug builds.
///
/// Contracts:
///  - Layout: one contiguous buffer, element (r, c) at data()[r * cols() + c].
///    RowPtr(r) is valid for cols() elements; pointers from data()/RowPtr()
///    are invalidated by Resize and by assignment/moves, like the underlying
///    std::vector's.
///  - Thread-safety: const members are safe to call concurrently. Mutation
///    requires external synchronization — the idiomatic pattern under
///    parallel::For is disjoint writes (each task owns distinct rows via
///    RowPtr), which SpMM, k-means and t-SNE all follow.
///  - Indexing: At/operator() assert bounds in debug builds and perform no
///    checking in release builds.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds a matrix from nested initializer data (row major).
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  /// Identity matrix of size n x n.
  static Matrix Identity(size_t n);

  /// Entries ~ N(0, stddev^2).
  static Matrix RandomNormal(size_t rows, size_t cols, double stddev,
                             Rng* rng);

  /// Glorot/Xavier uniform initialization for layer weights.
  static Matrix GlorotUniform(size_t rows, size_t cols, Rng* rng);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& At(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double At(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double& operator()(size_t r, size_t c) { return At(r, c); }
  double operator()(size_t r, size_t c) const { return At(r, c); }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* RowPtr(size_t r) { return data_.data() + r * cols_; }
  const double* RowPtr(size_t r) const { return data_.data() + r * cols_; }

  /// Copies row \p r into a vector.
  std::vector<double> Row(size_t r) const;
  /// Overwrites row \p r (v.size() must equal cols()).
  void SetRow(size_t r, const std::vector<double>& v);

  void Fill(double value);
  void Resize(size_t rows, size_t cols, double fill = 0.0);
  /// Reshapes without initializing the payload: existing element values
  /// are unspecified afterwards and every element must be written before
  /// it is read. Never shrinks capacity, so workspace matrices reused
  /// across calls stop allocating once they have seen their peak shape
  /// (the GNN hot path relies on this; see gnn/gnn_model.h).
  void ResizeForOverwrite(size_t rows, size_t cols);

  /// In-place element-wise operations.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);

  /// Frobenius norm.
  double Norm() const;
  /// Sum of all entries.
  double Sum() const;

  /// Returns the transpose.
  Matrix Transposed() const;

  /// Human-readable rendering for debugging.
  std::string ToString(int precision = 3) const;

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

Matrix operator+(Matrix a, const Matrix& b);
Matrix operator-(Matrix a, const Matrix& b);
Matrix operator*(Matrix a, double s);
Matrix operator*(double s, Matrix a);

}  // namespace fexiot
