#pragma once
/// \file oracle.hpp
/// Independent scalar reference for the benchmark's correctness check.
/// Sampled cells and lanes are recomputed one sample at a time with
/// TwoBranchNet::estimate_soc / predict_soc and core::eq1_predict, following
/// each cell's own history (re-seeds, workload overrides, params, mode and
/// serving model) as the benchmark's publish log records it.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cell_params.hpp"
#include "core/predictor.hpp"
#include "core/two_branch_net.hpp"
#include "data/windowing.hpp"
#include "inputs.hpp"
#include "serve/fleet_engine.hpp"
#include "serve/rollout_engine.hpp"

namespace perfbench {

/// Tolerances per serving precision: the f64 path is bitwise equal to the
/// scalar reference in practice; the f32 path is held to the repository's
/// committed f32 contract.
inline constexpr double kTolF64 = 1e-9;
inline constexpr double kTolF32 = 1e-4;

/// Per-cell state a FleetEngine tick depends on besides its SoC, mirrored
/// from what the benchmark published.
class FleetMirror {
 public:
  FleetMirror(std::vector<sp::serve::CellMode> modes,
              const sp::core::CellParams& defaults);

  /// Records the effect of one drained (valid) message for `tick`.
  void apply(MsgKind kind, const Message& m, std::uint64_t tick);

  /// Expected SoC of `cell` after tick `tick`, given its SoC before the
  /// tick and the step's workload rows.
  [[nodiscard]] double expected(const sp::core::TwoBranchNet& net,
                                sp::core::InferenceWorkspace& ws,
                                std::size_t cell, double soc_before,
                                const sp::nn::Matrix& rows,
                                std::uint64_t tick) const;

 private:
  std::vector<sp::serve::CellMode> modes_;
  std::vector<sp::core::CellParams> params_;
  std::vector<std::uint8_t> override_active_;
  std::vector<Message> override_;
  std::vector<std::uint64_t> reseed_tick_;  ///< tick of the last re-seed + 1
  std::vector<Message> reseed_;
};

/// Whether `got` matches the scalar reference trajectory of `lane`.
bool rollout_matches(const sp::core::TwoBranchNet& net,
                     sp::core::InferenceWorkspace& ws,
                     const sp::serve::RolloutLane& lane,
                     const sp::core::Rollout& got, double tol);

}  // namespace perfbench
