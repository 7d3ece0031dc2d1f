#include "nn/scaler.hpp"

#include <cmath>
#include <stdexcept>

namespace socpinn::nn {

void StandardScaler::fit(const Matrix& x) {
  if (x.rows() == 0 || x.cols() == 0) {
    throw std::invalid_argument("StandardScaler::fit: empty matrix");
  }
  for (const double v : x.data()) {
    if (!std::isfinite(v)) {
      throw std::invalid_argument("StandardScaler::fit: non-finite sample");
    }
  }
  const auto n = static_cast<double>(x.rows());
  means_.assign(x.cols(), 0.0);
  stds_.assign(x.cols(), 0.0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      means_[c] += x(r, c);
    }
  }
  for (auto& m : means_) m /= n;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      const double d = x(r, c) - means_[c];
      stds_[c] += d * d;
    }
  }
  for (std::size_t c = 0; c < stds_.size(); ++c) {
    stds_[c] = std::sqrt(stds_[c] / n);
    if (stds_[c] < 1e-12) {
      // Constant column: scale by its magnitude so out-of-distribution
      // queries (e.g. a horizon N never seen in training) degrade
      // gracefully instead of producing huge standardized values.
      stds_[c] = std::max(1.0, std::fabs(means_[c]));
    }
  }
}

Matrix StandardScaler::transform(const Matrix& x) const {
  if (!fitted()) throw std::logic_error("StandardScaler: not fitted");
  if (x.cols() != means_.size()) {
    throw std::invalid_argument("StandardScaler::transform: width mismatch");
  }
  Matrix out = x;
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) {
      out(r, c) = (out(r, c) - means_[c]) / stds_[c];
    }
  }
  return out;
}

void StandardScaler::transform_columns_into(const Matrix& x,
                                            Matrix& out) const {
  if (!fitted()) throw std::logic_error("StandardScaler: not fitted");
  if (x.rows() != means_.size()) {
    throw std::invalid_argument("StandardScaler::transform_columns_into: "
                                "feature rows");
  }
  out.resize(x.rows(), x.cols());
  for (std::size_t f = 0; f < x.rows(); ++f) {
    const double mean = means_[f];
    const double std = stds_[f];
    for (std::size_t j = 0; j < x.cols(); ++j) {
      out(f, j) = (x(f, j) - mean) / std;
    }
  }
}

void StandardScaler::transform_row(std::span<double> row) const {
  if (!fitted()) throw std::logic_error("StandardScaler: not fitted");
  if (row.size() != means_.size()) {
    throw std::invalid_argument("StandardScaler::transform_row: width");
  }
  for (std::size_t c = 0; c < row.size(); ++c) {
    row[c] = (row[c] - means_[c]) / stds_[c];
  }
}

Matrix StandardScaler::inverse_transform(const Matrix& x) const {
  if (!fitted()) throw std::logic_error("StandardScaler: not fitted");
  if (x.cols() != means_.size()) {
    throw std::invalid_argument("StandardScaler::inverse_transform: width");
  }
  Matrix out = x;
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) {
      out(r, c) = out(r, c) * stds_[c] + means_[c];
    }
  }
  return out;
}

Matrix StandardScaler::fit_transform(const Matrix& x) {
  fit(x);
  return transform(x);
}

StandardScaler StandardScaler::from_moments(std::vector<double> means,
                                            std::vector<double> stds) {
  if (means.size() != stds.size() || means.empty()) {
    throw std::invalid_argument("StandardScaler::from_moments: bad sizes");
  }
  // Every moment reaches each forward as (x - mean) / std, so one NaN or
  // Inf poisons every output. Written as "not (finite and > 0)": a plain
  // `s <= 0.0` is false for NaN and waves it through.
  for (std::size_t c = 0; c < means.size(); ++c) {
    if (!std::isfinite(means[c])) {
      throw std::invalid_argument(
          "StandardScaler::from_moments: non-finite mean");
    }
    if (!(std::isfinite(stds[c]) && stds[c] > 0.0)) {
      throw std::invalid_argument(
          "StandardScaler::from_moments: std must be finite and > 0");
    }
  }
  StandardScaler scaler;
  scaler.means_ = std::move(means);
  scaler.stds_ = std::move(stds);
  return scaler;
}

}  // namespace socpinn::nn
