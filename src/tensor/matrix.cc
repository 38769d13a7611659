#include "tensor/matrix.h"

#include <cmath>
#include <sstream>

namespace fexiot {

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    assert(rows[r].size() == m.cols_);
    for (size_t c = 0; c < m.cols_; ++c) m.At(r, c) = rows[r][c];
  }
  return m;
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m.At(i, i) = 1.0;
  return m;
}

Matrix Matrix::RandomNormal(size_t rows, size_t cols, double stddev,
                            Rng* rng) {
  Matrix m(rows, cols);
  for (auto& x : m.data_) x = rng->Normal(0.0, stddev);
  return m;
}

Matrix Matrix::GlorotUniform(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  const double limit = std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (auto& x : m.data_) x = rng->Uniform(-limit, limit);
  return m;
}

std::vector<double> Matrix::Row(size_t r) const {
  assert(r < rows_);
  return std::vector<double>(RowPtr(r), RowPtr(r) + cols_);
}

void Matrix::SetRow(size_t r, const std::vector<double>& v) {
  assert(r < rows_ && v.size() == cols_);
  std::copy(v.begin(), v.end(), RowPtr(r));
}

void Matrix::Fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::Resize(size_t rows, size_t cols, double fill) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, fill);
}

void Matrix::ResizeForOverwrite(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

Matrix& Matrix::operator+=(const Matrix& other) {
  assert(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  assert(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (auto& x : data_) x *= scalar;
  return *this;
}

double Matrix::Norm() const {
  double s = 0.0;
  for (double x : data_) s += x * x;
  return std::sqrt(s);
}

double Matrix::Sum() const {
  double s = 0.0;
  for (double x : data_) s += x;
  return s;
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) t.At(c, r) = At(r, c);
  }
  return t;
}

std::string Matrix::ToString(int precision) const {
  std::ostringstream os;
  os.precision(precision);
  os << std::fixed;
  os << "Matrix(" << rows_ << "x" << cols_ << ")[\n";
  for (size_t r = 0; r < rows_; ++r) {
    os << "  ";
    for (size_t c = 0; c < cols_; ++c) {
      os << At(r, c);
      if (c + 1 < cols_) os << ", ";
    }
    os << "\n";
  }
  os << "]";
  return os.str();
}

Matrix operator+(Matrix a, const Matrix& b) {
  a += b;
  return a;
}

Matrix operator-(Matrix a, const Matrix& b) {
  a -= b;
  return a;
}

Matrix operator*(Matrix a, double s) {
  a *= s;
  return a;
}

Matrix operator*(double s, Matrix a) {
  a *= s;
  return a;
}

}  // namespace fexiot
