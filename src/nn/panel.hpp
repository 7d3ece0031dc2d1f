#pragma once
/// \file panel.hpp
/// The feature-major inference forward, templated on the scalar type.
///
/// Every inference in the library runs the same two passes over
/// (features x batch) panels: dense_forward_columns (the runtime-ISA
/// kernel) and activate_columns (one elementwise pass). At double they
/// serve Mlp::infer_columns over a net's live weights, and with it every
/// f64 forward of TwoBranchNet and the baselines; at double and at float
/// they serve MlpSnapshotT / ScalerStatsT, the weights and scaler stats
/// the serve engines convert ONCE from a trained f64 model, so serving
/// never touches the trained network. The snapshot folds each ReLU that
/// directly follows a dense layer into that layer's kernel, which stores
/// relu(acc) in the same pass (the kernel's epilogue, same formula);
/// every other activation keeps its own pass. Training's
/// Activation::forward runs the same activation pass.
/// tests/nn/test_panel.cpp pins the fused snapshot at double bitwise to
/// the net's own unfused forward.

#include <cstddef>
#include <vector>

#include "nn/activation.hpp"
#include "nn/matrix.hpp"
#include "nn/scaler.hpp"
#include "nn/workspace.hpp"

namespace socpinn::nn {

class Mlp;

/// Feature-major dense forward: `activations` is (in_features x batch),
/// `weights` the usual (in x out) row-major layer matrix and `bias_row`
/// 1 x out; computes out = W^T * activations + bias (out_features x batch).
/// The batch axis is the long, unit-stride vectorization axis, which keeps
/// throughput independent of the (tiny) layer widths. Per output element
/// the accumulation order is bias first, then k ascending, each step one
/// fused multiply-add (simd.hpp) on every ISA. Training's matmul + bias
/// stays unfused, so the two forwards agree to a few ulps, not bitwise.
/// With `relu` set, each element is stored as activate_columns(kRelu)
/// would leave it, in the same pass. `out` is resized with capacity reuse,
/// so the steady state performs no heap allocation, and must not alias an
/// input.
template <typename T>
void dense_forward_columns(const MatrixT<T>& activations,
                           const MatrixT<T>& weights,
                           const MatrixT<T>& bias_row, MatrixT<T>& out,
                           bool relu = false);

/// out = act(in) elementwise, resizing out with capacity reuse; out must
/// not alias in. Layout-agnostic, so training's row-major batches and the
/// feature-major panels share it. The kind switch sits outside the element
/// loops, and each formula is evaluated natively at T.
template <typename T>
void activate_columns(ActivationKind kind, const MatrixT<T>& in,
                      MatrixT<T>& out);

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

/// Immutable inference-only snapshot of a trained Mlp at scalar type T:
/// dense weights/biases and activation kinds captured once, then served
/// through the feature-major panel kernel. Each ReLU directly after a
/// dense layer runs in that layer's kernel epilogue; leaky ReLU, tanh,
/// sigmoid, identity, a ReLU after another activation and any activation
/// ahead of the first dense layer keep their own pass. The snapshot never
/// aliases the source net, so a trained f64 model stays bitwise untouched
/// while its f32 twin serves traffic.
template <typename T>
class MlpSnapshotT {
 public:
  MlpSnapshotT() = default;

  /// Captures every layer. Throws std::invalid_argument on layer kinds the
  /// inference path does not know (the paper's branches are Dense +
  /// Activation only), on a dense layer whose input width differs from
  /// the previous dense layer's output width, and on a weight or bias that
  /// is not finite once converted to T.
  [[nodiscard]] static MlpSnapshotT from(const Mlp& mlp);

  /// Input width of the first dense layer, or 0 for a snapshot without one.
  [[nodiscard]] std::size_t in_features() const {
    for (const Step& step : steps_) {
      if (step.is_dense) return step.w.rows();
    }
    return 0;
  }

  /// Output width of the last dense layer, or 0 for a snapshot without one.
  [[nodiscard]] std::size_t out_features() const {
    for (auto step = steps_.rbegin(); step != steps_.rend(); ++step) {
      if (step->is_dense) return step->w.cols();
    }
    return 0;
  }

  /// Feature-major inference: `input_columns` is (in_features x batch) and
  /// the returned reference (out_features x batch) points into `ws`, valid
  /// until its next use. The steps alternate between ws's buffers 0 and 1,
  /// so the workspace holds two panels whatever the depth. Allocation-free
  /// once ws is warm at the batch size.
  const MatrixT<T>& infer_columns(const MatrixT<T>& input_columns,
                                  ForwardWorkspaceT<T>& ws) const;

  /// Layer count of the source net, fused ReLUs included.
  [[nodiscard]] std::size_t num_layers() const { return num_layers_; }

 private:
  struct Step {
    bool is_dense = false;
    bool relu = false;  ///< dense only: the next layer's ReLU, fused
    MatrixT<T> w;  ///< in x out (dense only)
    MatrixT<T> b;  ///< 1 x out (dense only)
    ActivationKind act = ActivationKind::kIdentity;  ///< activation only
  };
  std::vector<Step> steps_;
  std::size_t num_layers_ = 0;
};

}  // namespace socpinn::nn
