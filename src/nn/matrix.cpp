#include "nn/matrix.hpp"

#include <stdexcept>
#include <string>

#include "nn/panel_dispatch.hpp"

namespace socpinn::nn {

namespace {
void require_same_shape(const Matrix& a, const Matrix& b, const char* who) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument(
        std::string(who) + ": shape mismatch (" + std::to_string(a.rows()) +
        "x" + std::to_string(a.cols()) + " vs " + std::to_string(b.rows()) +
        "x" + std::to_string(b.cols()) + ")");
  }
}
}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
    // Copied, not moved: the default-allocated vector cannot donate its
    // buffer to the 64-byte-aligned storage. Construction-time only.
    : rows_(rows), cols_(cols), data_(data.begin(), data.end()) {
  if (data_.size() != rows * cols) {
    throw std::invalid_argument("Matrix: data size != rows*cols");
  }
}

Matrix Matrix::zeros(std::size_t rows, std::size_t cols) {
  return Matrix(rows, cols, 0.0);
}

Matrix Matrix::full(std::size_t rows, std::size_t cols, double v) {
  return Matrix(rows, cols, v);
}

Matrix Matrix::row_vector(std::span<const double> values) {
  return Matrix(1, values.size(),
                std::vector<double>(values.begin(), values.end()));
}

Matrix Matrix::column_vector(std::span<const double> values) {
  return Matrix(values.size(), 1,
                std::vector<double>(values.begin(), values.end()));
}

double Matrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return (*this)(r, c);
}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return (*this)(r, c);
}

std::span<const double> Matrix::row(std::size_t r) const {
  if (r >= rows_) throw std::out_of_range("Matrix::row");
  return {data_.data() + r * cols_, cols_};
}

std::span<double> Matrix::row(std::size_t r) {
  if (r >= rows_) throw std::out_of_range("Matrix::row");
  return {data_.data() + r * cols_, cols_};
}

void Matrix::set_row(std::size_t r, std::span<const double> src) {
  if (src.size() != cols_) {
    throw std::invalid_argument("Matrix::set_row: length mismatch");
  }
  auto dst = row(r);
  for (std::size_t c = 0; c < cols_; ++c) dst[c] = src[c];
}

Matrix& Matrix::operator+=(const Matrix& other) {
  require_same_shape(*this, other, "Matrix::operator+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  require_same_shape(*this, other, "Matrix::operator-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (auto& v : data_) v *= scalar;
  return *this;
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

void Matrix::fill(double v) {
  for (auto& x : data_) x = v;
}

double Matrix::squared_norm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return acc;
}

double Matrix::sum() const {
  double acc = 0.0;
  for (double v : data_) acc += v;
  return acc;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("matmul: inner dimension mismatch");
  }
  Matrix c(a.rows(), b.cols());
  // ikj order: streams over rows of b, good locality for row-major data.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c(i, j) += aik * b(k, j);
      }
    }
  }
  return c;
}

namespace {

/// Kernel of matmul_bias_into: each output row starts from the bias row
/// and accumulates rank-1 updates in ascending-k order. Raw
/// restrict pointers let the j loop vectorize; `noclone` keeps GCC from
/// constant-propagating the tiny layer widths into specialized clones
/// (whose interleaving vectorization is dramatically slower for these
/// shapes than the plain saxpy form).
__attribute__((noinline, noclone)) void matmul_rows(
    const double* __restrict a, const double* __restrict b,
    const double* __restrict bias, double* __restrict out, std::size_t rows,
    std::size_t inner, std::size_t cols) {
  for (std::size_t i = 0; i < rows; ++i) {
    const double* __restrict a_row = a + i * inner;
    double* __restrict out_row = out + i * cols;
    for (std::size_t j = 0; j < cols; ++j) out_row[j] = bias[j];
    for (std::size_t k = 0; k < inner; ++k) {
      const double aik = a_row[k];
      const double* __restrict b_row = b + k * cols;
      for (std::size_t j = 0; j < cols; ++j) {
        out_row[j] += aik * b_row[j];
      }
    }
  }
}

}  // namespace

void matmul_bias_into(const Matrix& a, const Matrix& b, const Matrix& bias_row,
                      Matrix& out) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("matmul_bias_into: inner dimension mismatch");
  }
  if (bias_row.rows() != 1 || bias_row.cols() != b.cols()) {
    throw std::invalid_argument("matmul_bias_into: bias shape mismatch");
  }
  if (&out == &a || &out == &b || &out == &bias_row) {
    throw std::invalid_argument("matmul_bias_into: out must not alias input");
  }
  out.resize(a.rows(), b.cols());
  matmul_rows(a.data().data(), b.data().data(), bias_row.data().data(),
              out.data().data(), a.rows(), a.cols(), b.cols());
}

void copy_into(const Matrix& src, Matrix& dst) {
  dst.resize(src.rows(), src.cols());
  const auto s = src.data();
  const auto d = dst.data();
  for (std::size_t i = 0; i < s.size(); ++i) d[i] = s[i];
}

void transpose_into(const Matrix& src, Matrix& dst) {
  if (&src == &dst) {
    throw std::invalid_argument("transpose_into: dst must not alias src");
  }
  dst.resize(src.cols(), src.rows());
  for (std::size_t r = 0; r < src.rows(); ++r) {
    for (std::size_t c = 0; c < src.cols(); ++c) {
      dst(c, r) = src(r, c);
    }
  }
}

void dense_forward_columns(const Matrix& activations, const Matrix& weights,
                           const Matrix& bias_row, Matrix& out) {
  if (activations.rows() != weights.rows()) {
    throw std::invalid_argument(
        "dense_forward_columns: feature dimension mismatch");
  }
  if (bias_row.rows() != 1 || bias_row.cols() != weights.cols()) {
    throw std::invalid_argument("dense_forward_columns: bias shape mismatch");
  }
  if (&out == &activations || &out == &weights || &out == &bias_row) {
    throw std::invalid_argument(
        "dense_forward_columns: out must not alias an input");
  }
  out.resize(weights.cols(), activations.cols());
  // Runtime-ISA dispatch (nn/panel_dispatch.hpp): the resolved kernel —
  // explicit AVX-512/AVX2/NEON or the scalar template — is bitwise
  // identical to the scalar reference at f64, so dispatch changes
  // throughput, never results.
  simd::dense_columns<double>(activations.data().data(),
                              weights.data().data(), bias_row.data().data(),
                              out.data().data(), weights.rows(),
                              weights.cols(), activations.cols());
}

Matrix matmul_transpose_a(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("matmul_transpose_a: dimension mismatch");
  }
  Matrix c(a.cols(), b.cols());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double aki = a(k, i);
      if (aki == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c(i, j) += aki * b(k, j);
      }
    }
  }
  return c;
}

Matrix matmul_transpose_b(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("matmul_transpose_b: dimension mismatch");
  }
  Matrix c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        acc += a(i, k) * b(j, k);
      }
      c(i, j) = acc;
    }
  }
  return c;
}

Matrix transpose(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      t(c, r) = m(r, c);
    }
  }
  return t;
}

Matrix operator+(Matrix a, const Matrix& b) {
  a += b;
  return a;
}

Matrix operator-(Matrix a, const Matrix& b) {
  a -= b;
  return a;
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  require_same_shape(a, b, "hadamard");
  Matrix c = a;
  for (std::size_t i = 0; i < c.size(); ++i) {
    c.data()[i] *= b.data()[i];
  }
  return c;
}

Matrix operator*(Matrix m, double s) {
  m *= s;
  return m;
}

Matrix operator*(double s, Matrix m) {
  m *= s;
  return m;
}

void add_row_broadcast(Matrix& m, const Matrix& bias_row) {
  if (bias_row.rows() != 1 || bias_row.cols() != m.cols()) {
    throw std::invalid_argument("add_row_broadcast: bias shape mismatch");
  }
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      m(r, c) += bias_row(0, c);
    }
  }
}

Matrix sum_rows(const Matrix& m) {
  Matrix out(1, m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      out(0, c) += m(r, c);
    }
  }
  return out;
}

bool operator==(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.data()[i] != b.data()[i]) return false;
  }
  return true;
}

}  // namespace socpinn::nn
