#pragma once
/// \file dense.hpp
/// Fully-connected layer: Y = X W + b, the building block of both branches
/// of the paper's network (Fig. 1).

#include <memory>
#include <string>

#include "nn/init.hpp"
#include "nn/layer.hpp"
#include "util/rng.hpp"

namespace socpinn::nn {

class Dense final : public Layer {
 public:
  /// Creates an in->out layer with the given initialization.
  Dense(std::size_t in, std::size_t out, util::Rng& rng,
        InitScheme scheme = InitScheme::kHeUniform);

  Matrix forward(const Matrix& input, bool train) override;
  Matrix backward(const Matrix& grad_output) override;
  void infer_columns(const Matrix& input, Matrix& out) const override;

  std::vector<Matrix*> params() override { return {&w_, &b_}; }
  std::vector<Matrix*> grads() override { return {&dw_, &db_}; }

  [[nodiscard]] std::size_t macs_per_sample() const override {
    return w_.rows() * w_.cols();
  }
  [[nodiscard]] std::size_t input_dim() const override { return w_.rows(); }
  [[nodiscard]] std::size_t output_dim() const override { return w_.cols(); }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;

  /// Direct weight access for serialization and tests.
  [[nodiscard]] const Matrix& weights() const { return w_; }
  [[nodiscard]] const Matrix& bias() const { return b_; }
  Matrix& weights() { return w_; }
  Matrix& bias() { return b_; }

 private:
  Matrix w_;  ///< in x out
  Matrix b_;  ///< 1 x out
  Matrix dw_;
  Matrix db_;
  Matrix cached_input_;
};

}  // namespace socpinn::nn
