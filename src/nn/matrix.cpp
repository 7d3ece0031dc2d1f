#include "nn/matrix.hpp"

#include <stdexcept>
#include <string>

namespace socpinn::nn {

namespace {
template <typename T>
void require_same_shape(const MatrixT<T>& a, const MatrixT<T>& b,
                        const char* who) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument(
        std::string(who) + ": shape mismatch (" + std::to_string(a.rows()) +
        "x" + std::to_string(a.cols()) + " vs " + std::to_string(b.rows()) +
        "x" + std::to_string(b.cols()) + ")");
  }
}
}  // namespace

template <typename T>
MatrixT<T>::MatrixT(std::size_t rows, std::size_t cols, T fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

template <typename T>
MatrixT<T>::MatrixT(std::size_t rows, std::size_t cols, std::vector<T> data)
    // Copied, not moved: the default-allocated vector cannot donate its
    // buffer to the 64-byte-aligned storage. Construction-time only.
    : rows_(rows), cols_(cols), data_(data.begin(), data.end()) {
  if (data_.size() != rows * cols) {
    throw std::invalid_argument("Matrix: data size != rows*cols");
  }
}

template <typename T>
MatrixT<T> MatrixT<T>::row_vector(std::span<const T> values) {
  return MatrixT(1, values.size(),
                 std::vector<T>(values.begin(), values.end()));
}

template <typename T>
MatrixT<T> MatrixT<T>::column_vector(std::span<const T> values) {
  return MatrixT(values.size(), 1,
                 std::vector<T>(values.begin(), values.end()));
}

template <typename T>
T MatrixT<T>::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return (*this)(r, c);
}

template <typename T>
T& MatrixT<T>::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return (*this)(r, c);
}

template <typename T>
std::span<const T> MatrixT<T>::row(std::size_t r) const {
  if (r >= rows_) throw std::out_of_range("Matrix::row");
  return {data_.data() + r * cols_, cols_};
}

template <typename T>
std::span<T> MatrixT<T>::row(std::size_t r) {
  if (r >= rows_) throw std::out_of_range("Matrix::row");
  return {data_.data() + r * cols_, cols_};
}

template <typename T>
void MatrixT<T>::set_row(std::size_t r, std::span<const T> src) {
  if (src.size() != cols_) {
    throw std::invalid_argument("Matrix::set_row: length mismatch");
  }
  auto dst = row(r);
  for (std::size_t c = 0; c < cols_; ++c) dst[c] = src[c];
}

template <typename T>
MatrixT<T>& MatrixT<T>::operator+=(const MatrixT& other) {
  require_same_shape(*this, other, "Matrix::operator+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

template <typename T>
MatrixT<T>& MatrixT<T>::operator-=(const MatrixT& other) {
  require_same_shape(*this, other, "Matrix::operator-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

template <typename T>
MatrixT<T>& MatrixT<T>::operator*=(T scalar) {
  for (auto& v : data_) v *= scalar;
  return *this;
}

template <typename T>
void MatrixT<T>::fill(T v) {
  for (auto& x : data_) x = v;
}

template <typename T>
T MatrixT<T>::squared_norm() const {
  T acc = T(0);
  for (T v : data_) acc += v * v;
  return acc;
}

template <typename T>
T MatrixT<T>::sum() const {
  T acc = T(0);
  for (T v : data_) acc += v;
  return acc;
}

template class MatrixT<double>;
template class MatrixT<float>;

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
