#include "nn/dense.hpp"

#include <sstream>
#include <stdexcept>

#include "nn/panel.hpp"

namespace socpinn::nn {

Dense::Dense(std::size_t in, std::size_t out, util::Rng& rng,
             InitScheme scheme)
    : w_(in, out), b_(1, out), dw_(in, out), db_(1, out) {
  if (in == 0 || out == 0) {
    throw std::invalid_argument("Dense: zero-sized layer");
  }
  initialize(w_, scheme, rng);
  initialize(b_, InitScheme::kZeros, rng);
}

Matrix Dense::forward(const Matrix& input, bool /*train*/) {
  if (input.cols() != w_.rows()) {
    throw std::invalid_argument("Dense::forward: input width " +
                                std::to_string(input.cols()) + " != " +
                                std::to_string(w_.rows()));
  }
  cached_input_ = input;
  Matrix out = matmul(input, w_);
  add_row_broadcast(out, b_);
  return out;
}

void Dense::infer_columns(const Matrix& input, Matrix& out) const {
  if (input.rows() != w_.rows()) {
    throw std::invalid_argument("Dense::infer_columns: input features " +
                                std::to_string(input.rows()) + " != " +
                                std::to_string(w_.rows()));
  }
  dense_forward_columns<double>(input, w_, b_, out);
}

Matrix Dense::backward(const Matrix& grad_output) {
  if (grad_output.rows() != cached_input_.rows() ||
      grad_output.cols() != w_.cols()) {
    throw std::invalid_argument("Dense::backward: gradient shape mismatch");
  }
  dw_ += matmul_transpose_a(cached_input_, grad_output);
  db_ += sum_rows(grad_output);
  return matmul_transpose_b(grad_output, w_);
}

std::string Dense::name() const {
  std::ostringstream out;
  out << "dense(" << w_.rows() << "->" << w_.cols() << ")";
  return out.str();
}

std::unique_ptr<Layer> Dense::clone() const {
  return std::make_unique<Dense>(*this);
}

}  // namespace socpinn::nn
