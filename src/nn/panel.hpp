#pragma once
/// \file panel.hpp
/// Scalar-templated carriers for the serve-side inference path.
///
/// Training stays on nn::Matrix (double); these types carry the serve
/// engines' feature-major panel path — the per-step hot path of
/// RolloutEngine / FleetEngine — at double and at float, where the same
/// register tiles pack twice the SIMD lanes. Weights and scaler stats are
/// converted ONCE from a trained f64 model (MlpSnapshotT / ScalerStatsT),
/// so serving never touches the trained network. Instantiated at double,
/// every type here reproduces the nn::Matrix path bitwise
/// (tests/nn/test_panel.cpp), which pins the template to the reference
/// arithmetic.

#include <cstddef>
#include <span>
#include <vector>

#include "nn/activation.hpp"
#include "nn/aligned.hpp"
#include "nn/matrix.hpp"
#include "nn/scaler.hpp"

namespace socpinn::nn {

class Mlp;

/// Dense row-major matrix of T — the minimal carrier the templated serve
/// path needs (element access, capacity-reusing resize, raw spans). Kept
/// deliberately smaller than nn::Matrix: training-side algebra never runs
/// at reduced precision.
template <typename T>
class MatrixT {
 public:
  MatrixT() = default;
  MatrixT(std::size_t rows, std::size_t cols, T fill = T(0))
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  /// Unchecked element access (hot path).
  T& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  T operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Raw row-major storage.
  [[nodiscard]] std::span<const T> data() const { return data_; }
  [[nodiscard]] std::span<T> data() { return data_; }

  /// Reshapes to rows x cols, reusing the existing allocation whenever the
  /// new size fits the current capacity (element values are unspecified
  /// afterwards — callers overwrite). Same contract as Matrix::resize: the
  /// primitive that keeps workspace buffers allocation-free.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  void fill(T v) {
    for (auto& x : data_) x = v;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  /// 64-byte-aligned like nn::Matrix (see aligned.hpp).
  AlignedVector<T> data_;
};

/// Feature-major dense forward over MatrixT panels: `activations` is
/// (in_features x batch), `weights` (in x out) row-major, `bias_row`
/// 1 x out; computes out = W^T * activations + bias (out_features x batch)
/// through the shared scalar-templated kernel. At T = double this is
/// bitwise identical to nn::dense_forward_columns. Same aliasing and
/// allocation rules as the Matrix overload.
template <typename T>
void dense_forward_columns(const MatrixT<T>& activations,
                           const MatrixT<T>& weights,
                           const MatrixT<T>& bias_row, MatrixT<T>& out);

/// Zeroes columns [from_col, cols()) of a staged panel — the pad columns
/// that round a thin batch up to the vectorized tile width. Per-column
/// panel results are independent, so pad outputs (discarded by every
/// caller) never affect real lanes; zero inputs merely keep the pad
/// arithmetic finite through the scaler.
template <typename T>
void zero_pad_columns(MatrixT<T>& m, std::size_t from_col) {
  for (std::size_t f = 0; f < m.rows(); ++f) {
    for (std::size_t j = from_col; j < m.cols(); ++j) m(f, j) = T(0);
  }
}

/// StandardScaler moments converted once to T: the serve-side standardize
/// step of the reduced-precision backend.
template <typename T>
struct ScalerStatsT {
  std::vector<T> means;
  std::vector<T> stds;

  /// Converts a fitted scaler's moments (throws std::logic_error when the
  /// scaler is unfitted). At T = double the copy is lossless, so the
  /// round-trip back to f64 is exact (tests cover the f32 round-trip too).
  [[nodiscard]] static ScalerStatsT from(const StandardScaler& scaler);

  [[nodiscard]] std::size_t num_features() const { return means.size(); }

  /// Feature-major standardize: x is (features x batch), row f standardized
  /// with moments f, written into out with capacity reuse. Same arithmetic
  /// shape as StandardScaler::transform_columns_into.
  void transform_columns_into(const MatrixT<T>& x, MatrixT<T>& out) const;
};

/// Preallocated activation panels for one MlpSnapshotT inference pass —
/// the templated twin of ForwardWorkspace. One owner (typically one shard).
template <typename T>
class ForwardWorkspaceT {
 public:
  void ensure(std::size_t n) {
    if (n > buffers_.size()) buffers_.resize(n);
  }

  [[nodiscard]] MatrixT<T>& buffer(std::size_t i) {
    ensure(i + 1);
    return buffers_[i];
  }

  [[nodiscard]] std::size_t num_buffers() const { return buffers_.size(); }

 private:
  std::vector<MatrixT<T>> buffers_;
};

/// Immutable inference-only snapshot of a trained Mlp at scalar type T:
/// dense weights/biases and activation kinds captured once, then served
/// through the feature-major panel kernel. The snapshot never aliases the
/// source net, so a trained f64 model stays bitwise untouched while its
/// f32 twin serves traffic.
template <typename T>
class MlpSnapshotT {
 public:
  MlpSnapshotT() = default;

  /// Captures every layer. Throws std::invalid_argument on layer kinds the
  /// inference path does not know (the paper's branches are Dense +
  /// Activation only) and on a dense layer whose input width differs from
  /// the previous dense layer's output width.
  [[nodiscard]] static MlpSnapshotT from(const Mlp& mlp);

  /// Input width of the first dense layer, or 0 for a snapshot without one.
  [[nodiscard]] std::size_t in_features() const {
    for (const Step& step : steps_) {
      if (step.is_dense) return step.w.rows();
    }
    return 0;
  }

  /// Feature-major inference: `input_columns` is (in_features x batch) and
  /// the returned reference (out_features x batch) points into `ws`, valid
  /// until its next use. Allocation-free once ws is warm at the batch size.
  const MatrixT<T>& infer_columns(const MatrixT<T>& input_columns,
                                  ForwardWorkspaceT<T>& ws) const;

  [[nodiscard]] std::size_t num_layers() const { return steps_.size(); }

 private:
  struct Step {
    bool is_dense = false;
    MatrixT<T> w;  ///< in x out (dense only)
    MatrixT<T> b;  ///< 1 x out (dense only)
    ActivationKind act = ActivationKind::kIdentity;  ///< activation only
  };
  std::vector<Step> steps_;
};

}  // namespace socpinn::nn
