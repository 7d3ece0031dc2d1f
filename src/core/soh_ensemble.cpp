#include "core/soh_ensemble.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "util/math.hpp"

namespace socpinn::core {

battery::CellParams aged_cell_params(const battery::CellParams& fresh,
                                     double soh) {
  // Range-check BEFORE any arithmetic, with the finite half spelled out: a
  // NaN soh makes both halves of `soh <= 0.5 || soh > 1.0` false (every
  // NaN compare is false), so the plain check would wave NaN straight into
  // the capacity scaling below.
  if (!(std::isfinite(soh) && soh > 0.5 && soh <= 1.0)) {
    throw std::invalid_argument("aged_cell_params: SoH outside (0.5, 1]");
  }
  battery::CellParams aged = fresh;
  // Fade shrinks the *actual* capacity; the nameplate stays what the
  // datasheet said, which is exactly why rated-capacity Coulomb counting
  // drifts further on old cells.
  aged.true_capacity_scale = fresh.true_capacity_scale * soh;
  // Empirical resistance growth: ~2x the relative capacity loss.
  const double growth = 1.0 + 2.0 * (1.0 - soh);
  aged.r0_ohm *= growth;
  aged.r1_ohm *= growth;
  aged.validate();
  return aged;
}

double estimate_soh_from_discharge(const data::Trace& trace,
                                   double rated_capacity_ah) {
  if (trace.size() < 2) {
    throw std::invalid_argument("estimate_soh_from_discharge: short trace");
  }
  // Finite AND positive, before any integration: NaN passes a plain
  // `<= 0.0` rejection (all NaN compares are false) and +Inf does too —
  // either would turn the normalization below into garbage instead of
  // throwing (the same bug class coulomb_predict's capacity check fixes).
  if (!(std::isfinite(rated_capacity_ah) && rated_capacity_ah > 0.0)) {
    throw std::invalid_argument(
        "estimate_soh_from_discharge: rated capacity must be finite and > 0");
  }
  const double swing = trace.front().soc - trace.back().soc;
  if (!(swing >= 0.5)) {  // negated: a NaN swing must reject, not pass
    throw std::invalid_argument(
        "estimate_soh_from_discharge: trace does not cover a discharge");
  }
  // Integrated discharge throughput (Ah) over the covered SoC swing.
  double throughput_as = 0.0;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    const double dt = trace[i].time_s - trace[i - 1].time_s;
    const double avg = 0.5 * (trace[i - 1].current + trace[i].current);
    // A NaN time poisons the throughput, and util::clamp passes NaN
    // through; a NaN current would fail `avg < 0.0` and drop its step.
    if (!(std::isfinite(dt) && std::isfinite(avg))) {
      throw std::invalid_argument(
          "estimate_soh_from_discharge: non-finite time or current at "
          "sample " + std::to_string(i));
    }
    if (avg < 0.0) throughput_as += -avg * dt;
  }
  const double measured_capacity_ah = throughput_as / 3600.0 / swing;
  return util::clamp(measured_capacity_ah / rated_capacity_ah, 0.0, 1.2);
}

std::size_t SohEnsemble::select_index(double soh) const {
  // Every distance to a NaN compares false, so the loop below would route
  // NaN (and both infinities, which tie at every level) to member 0.
  if (!std::isfinite(soh)) {
    throw std::invalid_argument("SohEnsemble: SoH query must be finite");
  }
  std::size_t best = 0;
  double best_dist = std::fabs(config_.soh_levels[0] - soh);
  for (std::size_t i = 1; i < config_.soh_levels.size(); ++i) {
    const double dist = std::fabs(config_.soh_levels[i] - soh);
    if (dist < best_dist) {
      best_dist = dist;
      best = i;
    }
  }
  return best;
}

TwoBranchNet& SohEnsemble::select(double soh) {
  return members_[select_index(soh)];
}

double SohEnsemble::predict_soc(double soh, double voltage, double current,
                                double temp_c, double avg_current,
                                double avg_temp_c, double horizon_s) {
  TwoBranchNet& member = select(soh);
  const double soc_now = member.estimate_soc(voltage, current, temp_c);
  return member.predict_soc(soc_now, avg_current, avg_temp_c, horizon_s);
}

void SohEnsemble::validate() const {
  if (config_.soh_levels.empty()) {
    throw std::invalid_argument("SohEnsemble: no SoH levels");
  }
  for (double soh : config_.soh_levels) {
    // Same NaN-proof form as aged_cell_params: a NaN level fails both
    // halves of the naive range check and would poison select_index.
    if (!(std::isfinite(soh) && soh > 0.5 && soh <= 1.0)) {
      throw std::invalid_argument("SohEnsemble: SoH level outside (0.5, 1]");
    }
  }
}

}  // namespace socpinn::core
