#include "nn/panel.hpp"

#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "nn/dense.hpp"
#include "nn/mlp.hpp"
#include "nn/panel_dispatch.hpp"
#include "nn/simd.hpp"
#include "util/annotations.hpp"

namespace socpinn::nn {

template <typename T>
SOCPINN_HOT void activate_columns(ActivationKind kind, const MatrixT<T>& in,
                                  MatrixT<T>& out) {
  // SOCPINN_HOT_ALLOW(resize): warm workspace capacity, layer shapes fixed
  out.resize(in.rows(), in.cols());
  const auto src = in.data();
  const auto dst = out.data();
  switch (kind) {
    case ActivationKind::kRelu:
      // The dense kernels' fused epilogue applies the same simd::relu.
      for (std::size_t i = 0; i < src.size(); ++i) dst[i] = simd::relu(src[i]);
      return;
    case ActivationKind::kLeakyRelu:
      for (std::size_t i = 0; i < src.size(); ++i) {
        dst[i] = src[i] > T(0) ? src[i] : T(0.01) * src[i];
      }
      return;
    case ActivationKind::kTanh:
      for (std::size_t i = 0; i < src.size(); ++i) {
        dst[i] = std::tanh(src[i]);
      }
      return;
    case ActivationKind::kSigmoid:
      for (std::size_t i = 0; i < src.size(); ++i) {
        dst[i] = T(1) / (T(1) + std::exp(-src[i]));
      }
      return;
    case ActivationKind::kIdentity:
      for (std::size_t i = 0; i < src.size(); ++i) dst[i] = src[i];
      return;
  }
  throw std::logic_error("activate_columns: unknown activation kind");
}

template <typename T>
SOCPINN_HOT void dense_forward_columns(const MatrixT<T>& activations,
                           const MatrixT<T>& weights,
                           const MatrixT<T>& bias_row, MatrixT<T>& out,
                           bool relu) {
  if (activations.rows() != weights.rows()) {
    throw std::invalid_argument(
        "dense_forward_columns<T>: feature dimension mismatch");
  }
  if (bias_row.rows() != 1 || bias_row.cols() != weights.cols()) {
    throw std::invalid_argument(
        "dense_forward_columns<T>: bias shape mismatch");
  }
  if (&out == &activations || &out == &weights || &out == &bias_row) {
    throw std::invalid_argument(
        "dense_forward_columns<T>: out must not alias an input");
  }
  // SOCPINN_HOT_ALLOW(resize): warm workspace capacity, layer shapes fixed
  out.resize(weights.cols(), activations.cols());
  // Runtime-ISA dispatch (nn/panel_dispatch.hpp): the resolved kernel —
  // explicit AVX-512/AVX2/NEON or the scalar template — is bitwise
  // identical to the scalar reference at f64, so dispatch changes
  // throughput, never results.
  const simd::PanelKernels& kernels = simd::active_panel_kernels();
  simd::DenseColumnsFn<T> kernel = nullptr;
  if constexpr (std::is_same_v<T, float>) {
    kernel = kernels.f32;
  } else {
    kernel = kernels.f64;
  }
  kernel(activations.data().data(), weights.data().data(),
         bias_row.data().data(), out.data().data(), weights.rows(),
         weights.cols(), activations.cols(), relu);
}

template <typename T>
ScalerStatsT<T> ScalerStatsT<T>::from(const StandardScaler& scaler) {
  if (!scaler.fitted()) {
    throw std::logic_error("ScalerStatsT::from: scaler not fitted");
  }
  ScalerStatsT stats;
  stats.means.reserve(scaler.num_features());
  stats.stds.reserve(scaler.num_features());
  for (const double m : scaler.means()) stats.means.push_back(static_cast<T>(m));
  for (const double s : scaler.stds()) stats.stds.push_back(static_cast<T>(s));
  return stats;
}

template <typename T>
SOCPINN_HOT void ScalerStatsT<T>::transform_columns_into(
    const MatrixT<T>& x, MatrixT<T>& out) const {
  if (means.empty()) {
    throw std::logic_error("ScalerStatsT: empty stats (scaler not fitted)");
  }
  if (x.rows() != means.size()) {
    throw std::invalid_argument("ScalerStatsT::transform_columns_into: "
                                "feature rows");
  }
  // SOCPINN_HOT_ALLOW(resize): warm workspace capacity, layer shapes fixed
  out.resize(x.rows(), x.cols());
  for (std::size_t f = 0; f < x.rows(); ++f) {
    const T mean = means[f];
    const T std = stds[f];
    for (std::size_t j = 0; j < x.cols(); ++j) {
      out(f, j) = (x(f, j) - mean) / std;
    }
  }
}

namespace {

/// `m` converted to T. Throws std::invalid_argument naming `layer` on a
/// value that is not finite at T: a NaN or Inf, or an f64 value beyond
/// float range (checked before the cast, which would be undefined).
template <typename T>
MatrixT<T> converted(const Matrix& m, std::size_t layer) {
  MatrixT<T> out(m.rows(), m.cols());
  for (std::size_t e = 0; e < m.size(); ++e) {
    const double v = m.data()[e];
    if (!(std::fabs(v) <=
          static_cast<double>(std::numeric_limits<T>::max()))) {
      throw std::invalid_argument(
          "MlpSnapshotT::from: layer " + std::to_string(layer) +
          " has a weight or bias that is not finite at the snapshot's "
          "precision");
    }
    out.data()[e] = static_cast<T>(v);
  }
  return out;
}

}  // namespace

template <typename T>
MlpSnapshotT<T> MlpSnapshotT<T>::from(const Mlp& mlp) {
  MlpSnapshotT snapshot;
  snapshot.num_layers_ = mlp.num_layers();
  snapshot.steps_.reserve(mlp.num_layers());
  std::optional<std::size_t> width;  // output width of the last dense layer
  for (std::size_t i = 0; i < mlp.num_layers(); ++i) {
    const Layer& layer = mlp.layer(i);
    Step step;
    if (const auto* dense = dynamic_cast<const Dense*>(&layer)) {
      step.is_dense = true;
      const Matrix& w = dense->weights();
      const Matrix& b = dense->bias();
      // Activations keep the width, so consecutive dense layers must chain:
      // a mis-chained net would otherwise throw from every forward instead
      // of here, before anything serves it.
      if (width.has_value() && w.rows() != *width) {
        throw std::invalid_argument(
            "MlpSnapshotT::from: layer " + std::to_string(i) + " takes " +
            std::to_string(w.rows()) + " inputs, the previous dense layer "
            "outputs " + std::to_string(*width));
      }
      width = w.cols();
      step.w = converted<T>(w, i);
      step.b = converted<T>(b, i);
    } else if (const auto* act = dynamic_cast<const Activation*>(&layer)) {
      // A ReLU right after a dense layer (whose step has no ReLU fused
      // yet) becomes that step's epilogue.
      if (act->kind() == ActivationKind::kRelu && !snapshot.steps_.empty() &&
          snapshot.steps_.back().is_dense && !snapshot.steps_.back().relu) {
        snapshot.steps_.back().relu = true;
        continue;
      }
      step.act = act->kind();
    } else {
      throw std::invalid_argument("MlpSnapshotT::from: unsupported layer '" +
                                  layer.name() + "'");
    }
    snapshot.steps_.push_back(std::move(step));
  }
  return snapshot;
}

template <typename T>
SOCPINN_HOT const MatrixT<T>& MlpSnapshotT<T>::infer_columns(
    const MatrixT<T>& input_columns, ForwardWorkspaceT<T>& ws) const {
  ws.ensure(2);
  if (steps_.empty()) {
    MatrixT<T>& out = ws.buffer(0);
    // SOCPINN_HOT_ALLOW(resize): warm workspace capacity, layer shapes fixed
    out.resize(input_columns.rows(), input_columns.cols());
    const auto src = input_columns.data();
    const auto dst = out.data();
    for (std::size_t i = 0; i < src.size(); ++i) dst[i] = src[i];
    return out;
  }
  // Step i reads what step i - 1 wrote and writes the other buffer.
  const MatrixT<T>* x = &input_columns;
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    MatrixT<T>& out = ws.buffer(i % 2);
    const Step& step = steps_[i];
    if (step.is_dense) {
      if (x->rows() != step.w.rows()) {
        throw std::invalid_argument(
            "MlpSnapshotT::infer_columns: input features " +
            // SOCPINN_HOT_ALLOW(to_string): cold throw path (shape mismatch)
            std::to_string(x->rows()) + " != " +
            // SOCPINN_HOT_ALLOW(to_string): cold throw path (shape mismatch)
            std::to_string(step.w.rows()));
      }
      dense_forward_columns(*x, step.w, step.b, out, step.relu);
    } else {
      activate_columns(step.act, *x, out);
    }
    x = &out;
  }
  return *x;
}

// The two precisions. Double serves every f64 forward, the library's and
// the engines'; float is the reduced-precision serve backend.
template void dense_forward_columns<float>(const MatrixT<float>&,
                                           const MatrixT<float>&,
                                           const MatrixT<float>&,
                                           MatrixT<float>&, bool);
template void dense_forward_columns<double>(const MatrixT<double>&,
                                            const MatrixT<double>&,
                                            const MatrixT<double>&,
                                            MatrixT<double>&, bool);
template void activate_columns<float>(ActivationKind, const MatrixT<float>&,
                                      MatrixT<float>&);
template void activate_columns<double>(ActivationKind,
                                       const MatrixT<double>&,
                                       MatrixT<double>&);
template struct ScalerStatsT<float>;
template struct ScalerStatsT<double>;
template class MlpSnapshotT<float>;
template class MlpSnapshotT<double>;

}  // namespace socpinn::nn
