#pragma once
/// \file scaler.hpp
/// Per-column feature standardization. The two branches of the network keep
/// independent scalers fitted on their respective training features; targets
/// (SoC) are already in [0, 1] and stay unscaled.

#include <vector>

#include "nn/matrix.hpp"

namespace socpinn::nn {

/// z-score standardization: x' = (x - mean) / std, column-wise.
class StandardScaler {
 public:
  StandardScaler() = default;

  /// Fits means and stds on the columns of x. Columns with zero variance
  /// get std 1 so constant features pass through shifted only. Throws
  /// std::invalid_argument, leaving the scaler as it was, on an empty x or
  /// a non-finite sample: one NaN or Inf would poison every moment of its
  /// column and, through them, every forward.
  void fit(const Matrix& x);

  /// Whether fit() (or from_moments) was called.
  [[nodiscard]] bool fitted() const { return !means_.empty(); }

  /// Transforms a batch; throws if not fitted or width mismatches.
  [[nodiscard]] Matrix transform(const Matrix& x) const;

  /// Feature-major variant: x is a transposed batch (features x batch),
  /// row f standardized with moments f, written into out with capacity
  /// reuse — no heap allocation in the steady state. Same per-element
  /// arithmetic as transform(), so both layouts agree bitwise. out must
  /// not alias x.
  void transform_columns_into(const Matrix& x, Matrix& out) const;

  /// Transforms a single row in place.
  void transform_row(std::span<double> row) const;

  /// Inverse of transform().
  [[nodiscard]] Matrix inverse_transform(const Matrix& x) const;

  /// fit + transform.
  [[nodiscard]] Matrix fit_transform(const Matrix& x);

  [[nodiscard]] std::size_t num_features() const { return means_.size(); }
  [[nodiscard]] const std::vector<double>& means() const { return means_; }
  [[nodiscard]] const std::vector<double>& stds() const { return stds_; }

  /// Rebuilds a scaler from stored moments (deserialization).
  [[nodiscard]] static StandardScaler from_moments(std::vector<double> means,
                                                   std::vector<double> stds);

 private:
  std::vector<double> means_;
  std::vector<double> stds_;
};

}  // namespace socpinn::nn
