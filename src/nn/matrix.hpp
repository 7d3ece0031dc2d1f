#pragma once
/// \file matrix.hpp
/// Dense row-major matrix — the single tensor type of the NN substrate:
/// nn::Matrix at double, and at float for the reduced-precision serve
/// backend. Training batches are rows, features columns; inference panels
/// are feature-major (features x batch). The networks in this project are
/// tiny (thousands of parameters), so clarity and testability are
/// prioritized over BLAS-grade performance; matmul is still written
/// cache-friendly (ikj loop order).

#include <cstddef>
#include <span>
#include <vector>

#include "nn/aligned.hpp"

namespace socpinn::nn {

template <typename T>
class MatrixT {
 public:
  /// Empty 0x0 matrix.
  MatrixT() = default;

  /// rows x cols matrix filled with `fill`.
  MatrixT(std::size_t rows, std::size_t cols, T fill = T(0));

  /// Builds from row-major data; throws if sizes disagree.
  MatrixT(std::size_t rows, std::size_t cols, std::vector<T> data);

  /// 1 x n row vector from values.
  [[nodiscard]] static MatrixT row_vector(std::span<const T> values);
  /// n x 1 column vector from values.
  [[nodiscard]] static MatrixT column_vector(std::span<const T> values);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  /// Unchecked element access (hot path).
  T& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  T operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked access; throws std::out_of_range.
  [[nodiscard]] T at(std::size_t r, std::size_t c) const;
  T& at(std::size_t r, std::size_t c);

  /// Raw row-major storage.
  [[nodiscard]] std::span<const T> data() const { return data_; }
  [[nodiscard]] std::span<T> data() { return data_; }

  /// View of one row.
  [[nodiscard]] std::span<const T> row(std::size_t r) const;
  [[nodiscard]] std::span<T> row(std::size_t r);

  /// Copies `src` (1 x cols or span of length cols) into row r.
  void set_row(std::size_t r, std::span<const T> src);

  /// Elementwise in-place operations (shapes must match; throws otherwise).
  MatrixT& operator+=(const MatrixT& other);
  MatrixT& operator-=(const MatrixT& other);
  MatrixT& operator*=(T scalar);

  /// Applies f to every element in place. Templated (not std::function) so
  /// the per-element call inlines on the hot path.
  template <typename F>
  void apply(F&& f) {
    for (auto& v : data_) v = f(v);
  }

  /// Reshapes to rows x cols, reusing the existing allocation whenever the
  /// new size fits the current capacity (element values are unspecified
  /// afterwards — callers overwrite). This is the primitive that makes
  /// workspace buffers allocation-free in the steady state; it stays
  /// inline because the serve engines call it per column tile.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Sets every element to v.
  void fill(T v);

  /// Frobenius norm squared (sum of squared elements).
  [[nodiscard]] T squared_norm() const;

  /// Sum over all elements.
  [[nodiscard]] T sum() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  /// 64-byte-aligned (see aligned.hpp): every panel base pointer sits on a
  /// cache-line / AVX-512-register boundary for the SIMD kernels.
  AlignedVector<T> data_;
};

// Members are defined in matrix.cpp for the two precisions.
extern template class MatrixT<double>;
extern template class MatrixT<float>;

/// The f64 matrix of training, serialization and the library forwards.
using Matrix = MatrixT<double>;

/// C = A * B. Throws on inner-dimension mismatch.
[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b);

/// Writes src^T into dst, resizing with capacity reuse. dst must not alias
/// src.
void transpose_into(const Matrix& src, Matrix& dst);

/// C = A^T * B without materializing the transpose.
[[nodiscard]] Matrix matmul_transpose_a(const Matrix& a, const Matrix& b);

/// C = A * B^T without materializing the transpose.
[[nodiscard]] Matrix matmul_transpose_b(const Matrix& a, const Matrix& b);

/// Transposed copy.
[[nodiscard]] Matrix transpose(const Matrix& m);

/// Elementwise sum / difference / product (Hadamard). Throw on mismatch.
[[nodiscard]] Matrix operator+(Matrix a, const Matrix& b);
[[nodiscard]] Matrix operator-(Matrix a, const Matrix& b);
[[nodiscard]] Matrix hadamard(const Matrix& a, const Matrix& b);

/// Scalar product.
[[nodiscard]] Matrix operator*(Matrix m, double s);
[[nodiscard]] Matrix operator*(double s, Matrix m);

/// Adds a 1 x cols bias row to every row of m (broadcast).
void add_row_broadcast(Matrix& m, const Matrix& bias_row);

/// Sums rows into a 1 x cols row vector (gradient of a broadcast bias).
[[nodiscard]] Matrix sum_rows(const Matrix& m);

/// Strict equality of shape and elements.
[[nodiscard]] bool operator==(const Matrix& a, const Matrix& b);

}  // namespace socpinn::nn
