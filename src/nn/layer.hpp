#pragma once
/// \file layer.hpp
/// Layer abstraction for the explicit-backprop NN substrate. Each layer
/// caches whatever it needs during forward() and produces input gradients
/// plus accumulated parameter gradients during backward(). Optimizers
/// consume the (parameter, gradient) pairs exposed by params()/grads().

#include <memory>
#include <string>
#include <vector>

#include "nn/matrix.hpp"

namespace socpinn::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output for a batch (rows = samples).
  /// `train` enables training-only behaviour (e.g. dropout masking).
  virtual Matrix forward(const Matrix& input, bool train) = 0;

  /// Propagates the loss gradient w.r.t. this layer's output back to its
  /// input, accumulating parameter gradients. Must be called after a
  /// matching forward(); shapes must agree with that forward's output.
  virtual Matrix backward(const Matrix& grad_output) = 0;

  /// Inference-only forward over a feature-major batch: `input` is
  /// (features x batch) — one row per feature, the batch as the long
  /// unit-stride axis — and the layer output is written into `out`,
  /// resized with capacity reuse so the steady state is allocation-free.
  /// Caches nothing (no backward support) and is const, so concurrent
  /// calls are safe as long as each caller owns its own `out`. `out` must
  /// not alias `input`.
  virtual void infer_columns(const Matrix& input, Matrix& out) const = 0;

  /// Trainable parameter tensors (possibly empty). Pointers remain valid
  /// for the lifetime of the layer.
  virtual std::vector<Matrix*> params() { return {}; }

  /// Gradient tensors, aligned index-by-index with params().
  virtual std::vector<Matrix*> grads() { return {}; }

  /// Sets all gradient tensors to zero.
  void zero_grad() {
    for (Matrix* g : grads()) g->fill(0.0);
  }

  /// Total number of scalar parameters.
  [[nodiscard]] std::size_t num_params() {
    std::size_t n = 0;
    for (const Matrix* p : params()) n += p->size();
    return n;
  }

  /// Multiply-accumulate count for a single-sample forward pass.
  [[nodiscard]] virtual std::size_t macs_per_sample() const { return 0; }

  /// Feature count expected/produced; 0 means "any" (elementwise layers).
  [[nodiscard]] virtual std::size_t input_dim() const { return 0; }
  [[nodiscard]] virtual std::size_t output_dim() const { return 0; }

  /// Diagnostic name, e.g. "dense(3->16)".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Deep copy (used to snapshot best-so-far models during training).
  [[nodiscard]] virtual std::unique_ptr<Layer> clone() const = 0;

 protected:
  Layer() = default;
  Layer(const Layer&) = default;
  Layer& operator=(const Layer&) = default;
};

}  // namespace socpinn::nn
