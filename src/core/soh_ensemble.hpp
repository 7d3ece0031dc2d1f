#pragma once
/// \file soh_ensemble.hpp
/// SoH-aware prediction ensemble — the extension the paper sketches at the
/// end of Sec. III-B (following Alamin et al. [26]): the two-branch model
/// "does not account for battery SoH degradation", so one builds "an
/// ensemble of SoC prediction models, each trained with data at a
/// different SoH level, and selects the appropriate one to use based on a
/// separate SoH estimation model".
///
/// This module provides:
///  * aged-cell parameter synthesis (capacity fade + resistance growth),
///  * a Coulomb-throughput SoH estimator over a recorded full discharge,
///  * the ensemble container that trains one TwoBranchNet per SoH level
///    and routes queries to the nearest member.

#include <cstdint>
#include <vector>

#include "core/experiment.hpp"

namespace socpinn::core {

/// Parameters of a cell aged to the given state of health (fractional
/// remaining capacity, e.g. 0.85). Capacity scales with SoH; internal
/// resistances grow with fade (a standard empirical coupling: ~40 %
/// resistance growth over a 20 % capacity loss).
[[nodiscard]] battery::CellParams aged_cell_params(
    const battery::CellParams& fresh, double soh);

/// Estimates SoH from a recorded *full* discharge trace: integrated
/// discharge throughput divided by the rated capacity, normalized by the
/// SoC swing actually covered. Throws if the trace covers less than half
/// of the SoC range (not a full discharge) or has a non-finite time or
/// current.
[[nodiscard]] double estimate_soh_from_discharge(
    const data::Trace& trace, double rated_capacity_ah);

struct SohEnsembleConfig {
  std::vector<double> soh_levels = {1.0, 0.9, 0.8};
  VariantSpec variant{"PINN-All", VariantKind::kPinn, {120.0, 240.0, 360.0}};
  std::uint64_t seed = 1;
};

/// Per-SoH-level model bank with nearest-level routing.
class SohEnsemble {
 public:
  /// Trains one member per SoH level. `make_setup(soh)` must supply the
  /// training traces recorded from a cell at that SoH level plus the
  /// usual experiment knobs (the data factories can be parameterized with
  /// aged_cell_params).
  template <typename SetupFactory>
  SohEnsemble(const SohEnsembleConfig& config, SetupFactory&& make_setup)
      : config_(config) {
    validate();
    for (double soh : config_.soh_levels) {
      const ExperimentSetup setup = make_setup(soh);
      members_.push_back(
          train_two_branch(setup, config_.variant, config_.seed).net);
    }
  }

  /// The member whose SoH level is closest to the query; a non-finite
  /// query throws std::invalid_argument (so does select_index).
  [[nodiscard]] TwoBranchNet& select(double soh);

  /// Index of the routed member (exposed for tests/diagnostics).
  [[nodiscard]] std::size_t select_index(double soh) const;

  /// Full-path prediction: route by SoH, then estimate + predict.
  [[nodiscard]] double predict_soc(double soh, double voltage,
                                   double current, double temp_c,
                                   double avg_current, double avg_temp_c,
                                   double horizon_s);

  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] const std::vector<double>& levels() const {
    return config_.soh_levels;
  }

 private:
  void validate() const;

  SohEnsembleConfig config_;
  std::vector<TwoBranchNet> members_;
};

}  // namespace socpinn::core
