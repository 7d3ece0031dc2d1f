#pragma once
/// \file matrix.hpp
/// Dense row-major matrix of doubles — the single tensor type of the NN
/// substrate. Batched samples are rows, features are columns. The networks
/// in this project are tiny (thousands of parameters), so clarity and
/// testability are prioritized over BLAS-grade performance; matmul is still
/// written cache-friendly (ikj loop order).

#include <cstddef>
#include <span>
#include <vector>

#include "nn/aligned.hpp"

namespace socpinn::nn {

class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Builds from row-major data; throws if sizes disagree.
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data);

  /// Factory helpers.
  [[nodiscard]] static Matrix zeros(std::size_t rows, std::size_t cols);
  [[nodiscard]] static Matrix full(std::size_t rows, std::size_t cols, double v);
  /// 1 x n row vector from values.
  [[nodiscard]] static Matrix row_vector(std::span<const double> values);
  /// n x 1 column vector from values.
  [[nodiscard]] static Matrix column_vector(std::span<const double> values);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  /// Unchecked element access (hot path).
  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked access; throws std::out_of_range.
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;
  double& at(std::size_t r, std::size_t c);

  /// Raw row-major storage.
  [[nodiscard]] std::span<const double> data() const { return data_; }
  [[nodiscard]] std::span<double> data() { return data_; }

  /// View of one row.
  [[nodiscard]] std::span<const double> row(std::size_t r) const;
  [[nodiscard]] std::span<double> row(std::size_t r);

  /// Copies `src` (1 x cols or span of length cols) into row r.
  void set_row(std::size_t r, std::span<const double> src);

  /// Elementwise in-place operations (shapes must match; throws otherwise).
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);

  /// Applies f to every element in place. Templated (not std::function) so
  /// the per-element call inlines on the hot path.
  template <typename F>
  void apply(F&& f) {
    for (auto& v : data_) v = f(v);
  }

  /// Reshapes to rows x cols, reusing the existing allocation whenever the
  /// new size fits the current capacity (element values are unspecified
  /// afterwards — callers overwrite). This is the primitive that makes
  /// workspace buffers allocation-free in the steady state.
  void resize(std::size_t rows, std::size_t cols);

  /// Sets every element to v.
  void fill(double v);

  /// Frobenius norm squared (sum of squared elements).
  [[nodiscard]] double squared_norm() const;

  /// Sum over all elements.
  [[nodiscard]] double sum() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  /// 64-byte-aligned (see aligned.hpp): every panel base pointer sits on a
  /// cache-line / AVX-512-register boundary for the SIMD kernels.
  AlignedVector<double> data_;
};

/// C = A * B. Throws on inner-dimension mismatch.
[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b);

/// out = A * B + bias (1 x cols row broadcast to every output row), fused so
/// the bias pass costs no extra sweep over `out`. `out` is resized
/// (capacity reused) so the steady state performs no heap allocation, and
/// must not alias an input.
void matmul_bias_into(const Matrix& a, const Matrix& b,
                      const Matrix& bias_row, Matrix& out);

/// Copies src into dst, resizing dst with capacity reuse.
void copy_into(const Matrix& src, Matrix& dst);

/// Writes src^T into dst, resizing with capacity reuse. dst must not alias
/// src.
void transpose_into(const Matrix& src, Matrix& dst);

/// Feature-major dense forward for batched serving. `activations` holds a
/// batch transposed — (in_features x batch), one row per feature —
/// `weights` is the usual (in x out) row-major layer matrix and `bias_row`
/// 1 x out. Computes out = W^T * activations + bias (out_features x batch).
/// The batch axis is the long, unit-stride vectorization axis, which keeps
/// throughput independent of the (tiny) layer widths. Per output element
/// the accumulation order is bias first, then k ascending — identical to
/// matmul_bias_into — so both layouts agree bitwise. Same aliasing and
/// allocation rules as matmul_bias_into.
void dense_forward_columns(const Matrix& activations, const Matrix& weights,
                           const Matrix& bias_row, Matrix& out);

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
