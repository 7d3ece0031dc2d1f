#pragma once
/// \file two_branch_net.hpp
/// The paper's primary contribution (Fig. 1): two cascaded fully-connected
/// branches.
///
///   Branch 1 (estimator):  [V(t), I(t), T(t)]            -> SoC(t)
///   Branch 2 (predictor):  [SoC(t), avg I, avg T, N]      -> SoC(t+N)
///
/// Default hyper-parameters follow Sec. III-A: three hidden layers of
/// 16/32/16 ReLU units per branch (an inverted bottleneck), scalar linear
/// outputs, 2,322 trainable parameters in total. Each branch owns a
/// StandardScaler for its raw inputs; SoC outputs are unscaled (already in
/// [0, 1]).

#include <cstdint>
#include <vector>

#include "nn/cost_model.hpp"
#include "nn/mlp.hpp"
#include "nn/scaler.hpp"
#include "nn/workspace.hpp"

namespace socpinn::core {

struct TwoBranchConfig {
  std::vector<std::size_t> hidden = {16, 32, 16};
  nn::ActivationKind activation = nn::ActivationKind::kRelu;
};

/// Caller-owned scratch for allocation-free inference of either branch:
/// one set of layer panels, the standardize output and the raw input
/// panel. TwoBranchNet uses it at T = double (InferenceWorkspace),
/// TwoBranchSnapshotT<T> at both precisions. A forward's result points
/// into the workspace, so a caller reads it back before staging the next
/// forward of either branch. Give each thread its own workspace; the net
/// and the snapshots stay const and shareable.
template <typename T>
struct InferenceWorkspaceT {
  nn::ForwardWorkspaceT<T> layers;
  nn::MatrixT<T> scaled;  ///< standardized inputs of the current forward
  /// Raw feature-major input: 3 x n sensors for Branch 1, 4 x n rows for
  /// Branch 2. The row-major batch calls also hand their n x 1 result
  /// back in it.
  nn::MatrixT<T> input;
};

using InferenceWorkspace = InferenceWorkspaceT<double>;

class TwoBranchNet {
 public:
  /// Builds both branches with independent weight streams from `seed`.
  explicit TwoBranchNet(TwoBranchConfig config = {}, std::uint64_t seed = 1);

  /// --- Const, allocation-free inference. ---
  /// Inputs are raw (unscaled) feature matrices. Every call standardizes
  /// its batch and runs the branch's Mlp::infer_columns, the one f64
  /// forward; returned references point into `ws` and stay valid until its
  /// next forward of either branch. Requires fitted scalers (training fits
  /// them).

  /// Branch-1 batch: n x 3 [V, I, T] -> n x 1 estimated SoC(t).
  const nn::Matrix& estimate_batch(const nn::Matrix& sensors_raw,
                                   InferenceWorkspace& ws) const;

  /// Branch-2 batch: n x 4 [SoC, avg I, avg T, N] -> n x 1 SoC(t+N).
  const nn::Matrix& predict_batch(const nn::Matrix& branch2_raw,
                                  InferenceWorkspace& ws) const;

  /// Feature-major Branch-2 batch for callers that keep lanes transposed:
  /// `branch2_raw_columns` is 4 x n ([SoC; avg I; avg T; N] rows, batch as
  /// the unit-stride axis), the result is the 1 x n prediction panel. Same
  /// arithmetic as predict_batch, without its two transposes.
  const nn::Matrix& predict_batch_columns(
      const nn::Matrix& branch2_raw_columns, InferenceWorkspace& ws) const;

  /// Full cascade: Branch-1 estimates SoC(t) from sensors (n x 3), Branch 2
  /// advances it under `workload_raw` (n x 3: avg I, avg T, horizon N).
  /// Returns n x 1 SoC(t+N).
  const nn::Matrix& cascade_batch(const nn::Matrix& sensors_raw,
                                  const nn::Matrix& workload_raw,
                                  InferenceWorkspace& ws) const;

  /// Const scalar variants: one staged column through the same forward.
  [[nodiscard]] double estimate_soc(double voltage, double current,
                                    double temp_c,
                                    InferenceWorkspace& ws) const;
  [[nodiscard]] double predict_soc(double soc_now, double avg_current,
                                   double avg_temp_c, double horizon_s,
                                   InferenceWorkspace& ws) const;

  /// --- Convenience wrappers using the net's own workspace. ---
  /// Not safe for concurrent use on one instance; prefer the const
  /// overloads above with per-thread workspaces.

  /// Branch-1 inference: estimated SoC(t) from raw sensor readings.
  [[nodiscard]] double estimate_soc(double voltage, double current,
                                    double temp_c);

  /// Branch-2 inference: predicted SoC(t+N) from the current SoC and the
  /// expected workload.
  [[nodiscard]] double predict_soc(double soc_now, double avg_current,
                                   double avg_temp_c, double horizon_s);

  /// Batched variants returning owned copies of the workspace result.
  [[nodiscard]] nn::Matrix estimate_batch(const nn::Matrix& sensors_raw);
  [[nodiscard]] nn::Matrix predict_batch(const nn::Matrix& branch2_raw);

  [[nodiscard]] nn::Mlp& branch1() { return branch1_; }
  [[nodiscard]] nn::Mlp& branch2() { return branch2_; }
  [[nodiscard]] const nn::Mlp& branch1() const { return branch1_; }
  [[nodiscard]] const nn::Mlp& branch2() const { return branch2_; }
  [[nodiscard]] nn::StandardScaler& scaler1() { return scaler1_; }
  [[nodiscard]] nn::StandardScaler& scaler2() { return scaler2_; }
  [[nodiscard]] const nn::StandardScaler& scaler1() const { return scaler1_; }
  [[nodiscard]] const nn::StandardScaler& scaler2() const { return scaler2_; }

  [[nodiscard]] const TwoBranchConfig& config() const { return config_; }

  /// Total trainable parameters (paper: 2,322 for the default config).
  [[nodiscard]] std::size_t num_params();

  /// Cost of one full cascaded inference (Branch 1 + Branch 2).
  [[nodiscard]] nn::ModelCost cost();

 private:
  TwoBranchConfig config_;
  nn::Mlp branch1_;
  nn::Mlp branch2_;
  nn::StandardScaler scaler1_;
  nn::StandardScaler scaler2_;
  InferenceWorkspace ws_;  ///< backs the convenience wrappers only
};

}  // namespace socpinn::core
