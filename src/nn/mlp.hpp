#pragma once
/// \file mlp.hpp
/// Sequential container of layers plus the `make` factory that builds the
/// paper's inverted-bottleneck branches (e.g. {3,16,32,16,1} with ReLU).

#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/layer.hpp"
#include "nn/workspace.hpp"
#include "util/rng.hpp"

namespace socpinn::nn {

class Mlp {
 public:
  Mlp() = default;

  /// Deep-copying value semantics so trained models can be snapshotted.
  Mlp(const Mlp& other);
  Mlp& operator=(const Mlp& other);
  Mlp(Mlp&&) noexcept = default;
  Mlp& operator=(Mlp&&) noexcept = default;

  /// Builds a fully-connected net: dims = {in, h1, ..., out} with
  /// `hidden_activation` after every hidden layer and a linear output.
  /// Throws if fewer than two dims.
  [[nodiscard]] static Mlp make(const std::vector<std::size_t>& dims,
                                util::Rng& rng,
                                ActivationKind hidden_activation =
                                    ActivationKind::kRelu);

  /// Appends a layer (takes ownership).
  void add(std::unique_ptr<Layer> layer);

  /// Forward pass through all layers. Caches activations for backward();
  /// use infer_columns() for the allocation-free inference-only path.
  Matrix forward(const Matrix& input, bool train = false);

  /// Row-major adapter over infer_columns(): `input` is (batch x
  /// in_features); it is transposed into ws, run, and the (batch x
  /// out_features) result transposed back into ws.
  const Matrix& infer(const Matrix& input, ForwardWorkspace& ws) const;

  /// Inference-only forward over a feature-major batch: `input_columns`
  /// is (in_features x batch) and the returned reference (out_features x
  /// batch) points into `ws`, valid until its next use. Runs every layer's
  /// infer_columns over the net's live weights, with no weight copy and,
  /// once ws is warm at the batch size, no heap allocation. Const and
  /// thread-safe when each thread owns its workspace. Bitwise equal to
  /// MlpSnapshotT<double>::infer_columns of the same net.
  const Matrix& infer_columns(const Matrix& input_columns,
                              ForwardWorkspace& ws) const;

  /// Convenience single-sample forward; returns the scalar first output.
  [[nodiscard]] double predict_scalar(std::span<const double> features);

  /// Backward pass (call after forward with train=true semantics).
  Matrix backward(const Matrix& grad_output);

  /// Zeroes all parameter gradients.
  void zero_grad();

  /// Flattened parameter/gradient views across layers.
  [[nodiscard]] std::vector<Matrix*> params();
  [[nodiscard]] std::vector<Matrix*> grads();

  [[nodiscard]] std::size_t num_params();
  [[nodiscard]] std::size_t macs_per_sample() const;

  /// First dense layer's input width / last dense layer's output width.
  [[nodiscard]] std::size_t input_dim() const;
  [[nodiscard]] std::size_t output_dim() const;

  [[nodiscard]] std::size_t num_layers() const { return layers_.size(); }
  [[nodiscard]] Layer& layer(std::size_t i) { return *layers_.at(i); }
  [[nodiscard]] const Layer& layer(std::size_t i) const {
    return *layers_.at(i);
  }

  /// "dense(3->16) -> relu -> ..." summary.
  [[nodiscard]] std::string describe() const;

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace socpinn::nn
