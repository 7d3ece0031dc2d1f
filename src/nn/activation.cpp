#include "nn/activation.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/panel.hpp"

namespace socpinn::nn {

namespace {
constexpr double kLeakySlope = 0.01;
}

std::string to_string(ActivationKind kind) {
  switch (kind) {
    case ActivationKind::kRelu: return "relu";
    case ActivationKind::kLeakyRelu: return "leaky_relu";
    case ActivationKind::kTanh: return "tanh";
    case ActivationKind::kSigmoid: return "sigmoid";
    case ActivationKind::kIdentity: return "identity";
  }
  return "?";
}

ActivationKind activation_from_string(const std::string& name) {
  if (name == "relu") return ActivationKind::kRelu;
  if (name == "leaky_relu") return ActivationKind::kLeakyRelu;
  if (name == "tanh") return ActivationKind::kTanh;
  if (name == "sigmoid") return ActivationKind::kSigmoid;
  if (name == "identity") return ActivationKind::kIdentity;
  throw std::invalid_argument("unknown activation: " + name);
}

double activate(ActivationKind kind, double x) {
  switch (kind) {
    case ActivationKind::kRelu: return x > 0.0 ? x : 0.0;
    case ActivationKind::kLeakyRelu: return x > 0.0 ? x : kLeakySlope * x;
    case ActivationKind::kTanh: return std::tanh(x);
    case ActivationKind::kSigmoid: return 1.0 / (1.0 + std::exp(-x));
    case ActivationKind::kIdentity: return x;
  }
  return x;
}

double activate_grad(ActivationKind kind, double x, double y) {
  switch (kind) {
    case ActivationKind::kRelu: return x > 0.0 ? 1.0 : 0.0;
    case ActivationKind::kLeakyRelu: return x > 0.0 ? 1.0 : kLeakySlope;
    case ActivationKind::kTanh: return 1.0 - y * y;
    case ActivationKind::kSigmoid: return y * (1.0 - y);
    case ActivationKind::kIdentity: return 1.0;
  }
  return 1.0;
}

Matrix Activation::forward(const Matrix& input, bool /*train*/) {
  cached_input_ = input;
  Matrix out;
  activate_columns(kind_, input, out);
  cached_output_ = out;
  return out;
}

void Activation::infer_columns(const Matrix& input, Matrix& out) const {
  activate_columns(kind_, input, out);
}

Matrix Activation::backward(const Matrix& grad_output) {
  if (grad_output.rows() != cached_input_.rows() ||
      grad_output.cols() != cached_input_.cols()) {
    throw std::invalid_argument("Activation::backward: shape mismatch");
  }
  Matrix grad = grad_output;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    grad.data()[i] *= activate_grad(kind_, cached_input_.data()[i],
                                    cached_output_.data()[i]);
  }
  return grad;
}

std::unique_ptr<Layer> Activation::clone() const {
  return std::make_unique<Activation>(*this);
}

}  // namespace socpinn::nn
