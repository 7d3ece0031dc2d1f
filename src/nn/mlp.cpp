#include "nn/mlp.hpp"

#include <stdexcept>

namespace socpinn::nn {

Mlp::Mlp(const Mlp& other) {
  layers_.reserve(other.layers_.size());
  for (const auto& layer : other.layers_) layers_.push_back(layer->clone());
}

Mlp& Mlp::operator=(const Mlp& other) {
  if (this == &other) return *this;
  Mlp copy(other);
  layers_ = std::move(copy.layers_);
  return *this;
}

Mlp Mlp::make(const std::vector<std::size_t>& dims, util::Rng& rng,
              ActivationKind hidden_activation) {
  if (dims.size() < 2) {
    throw std::invalid_argument("Mlp::make: need at least input and output");
  }
  Mlp net;
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    net.add(std::make_unique<Dense>(dims[i], dims[i + 1], rng));
    const bool is_last = i + 2 == dims.size();
    if (!is_last) {
      net.add(std::make_unique<Activation>(hidden_activation));
    }
  }
  return net;
}

void Mlp::add(std::unique_ptr<Layer> layer) {
  if (!layer) throw std::invalid_argument("Mlp::add: null layer");
  layers_.push_back(std::move(layer));
}

Matrix Mlp::forward(const Matrix& input, bool train) {
  Matrix x = input;
  for (auto& layer : layers_) x = layer->forward(x, train);
  return x;
}

const Matrix& Mlp::infer(const Matrix& input, ForwardWorkspace& ws) const {
  const std::size_t n = layers_.size();
  ws.ensure(n + 2);
  Matrix& staged = ws.buffer(n);
  transpose_into(input, staged);
  Matrix& out = ws.buffer(n + 1);
  transpose_into(infer_columns(staged, ws), out);
  return out;
}

const Matrix& Mlp::infer_columns(const Matrix& input_columns,
                                 ForwardWorkspace& ws) const {
  const std::size_t n = layers_.size();
  ws.ensure(n + 2);  // infer() stages its transposes in buffers n, n + 1
  if (n == 0) {
    // Layerless net: hand back a workspace-owned copy so the reference
    // contract (result lives in ws) holds regardless of topology.
    return ws.buffer(0) = input_columns;
  }
  const Matrix* x = &input_columns;
  for (std::size_t i = 0; i < n; ++i) {
    Matrix& out = ws.buffer(i);
    layers_[i]->infer_columns(*x, out);
    x = &out;
  }
  return *x;
}

double Mlp::predict_scalar(std::span<const double> features) {
  const Matrix out = forward(Matrix::row_vector(features), /*train=*/false);
  if (out.cols() == 0 || out.rows() == 0) {
    throw std::logic_error("Mlp::predict_scalar: empty output");
  }
  return out(0, 0);
}

Matrix Mlp::backward(const Matrix& grad_output) {
  Matrix g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

void Mlp::zero_grad() {
  for (auto& layer : layers_) layer->zero_grad();
}

std::vector<Matrix*> Mlp::params() {
  std::vector<Matrix*> out;
  for (auto& layer : layers_) {
    for (Matrix* p : layer->params()) out.push_back(p);
  }
  return out;
}

std::vector<Matrix*> Mlp::grads() {
  std::vector<Matrix*> out;
  for (auto& layer : layers_) {
    for (Matrix* g : layer->grads()) out.push_back(g);
  }
  return out;
}

std::size_t Mlp::num_params() {
  std::size_t n = 0;
  for (auto& layer : layers_) n += layer->num_params();
  return n;
}

std::size_t Mlp::macs_per_sample() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) n += layer->macs_per_sample();
  return n;
}

std::size_t Mlp::input_dim() const {
  for (const auto& layer : layers_) {
    if (layer->input_dim() != 0) return layer->input_dim();
  }
  return 0;
}

std::size_t Mlp::output_dim() const {
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    if ((*it)->output_dim() != 0) return (*it)->output_dim();
  }
  return 0;
}

std::string Mlp::describe() const {
  std::string out;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (i > 0) out += " -> ";
    out += layers_[i]->name();
  }
  return out;
}

}  // namespace socpinn::nn
