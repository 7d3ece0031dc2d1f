#pragma once
/// \file activation.hpp
/// Elementwise activation layers. The paper's branches use ReLU between
/// hidden layers and a linear (identity) output; tanh/sigmoid exist for the
/// LSTM baseline and ablations.

#include <memory>
#include <string>

#include "nn/layer.hpp"

namespace socpinn::nn {

enum class ActivationKind { kRelu, kLeakyRelu, kTanh, kSigmoid, kIdentity };

/// Name used in serialization and diagnostics ("relu", "tanh", ...).
[[nodiscard]] std::string to_string(ActivationKind kind);

/// Parses the serialized name; throws std::invalid_argument on unknown.
[[nodiscard]] ActivationKind activation_from_string(const std::string& name);

/// Scalar activation value / derivative (derivative expressed in terms of
/// input x and output y so each kind can use the cheaper formulation).
[[nodiscard]] double activate(ActivationKind kind, double x);
[[nodiscard]] double activate_grad(ActivationKind kind, double x, double y);

class Activation final : public Layer {
 public:
  explicit Activation(ActivationKind kind) : kind_(kind) {}

  Matrix forward(const Matrix& input, bool train) override;
  Matrix backward(const Matrix& grad_output) override;
  void infer_columns(const Matrix& input, Matrix& out) const override;

  [[nodiscard]] std::string name() const override { return to_string(kind_); }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] ActivationKind kind() const { return kind_; }

 private:
  ActivationKind kind_;
  Matrix cached_input_;
  Matrix cached_output_;
};

}  // namespace socpinn::nn
