#include "oracle.hpp"

#include <cmath>

#include "util/math.hpp"

namespace perfbench {

FleetMirror::FleetMirror(std::vector<sp::serve::CellMode> modes,
                         const sp::core::CellParams& defaults)
    : modes_(std::move(modes)),
      params_(modes_.size(), defaults),
      override_active_(modes_.size(), 0),
      override_(modes_.size()),
      reseed_tick_(modes_.size(), 0),
      reseed_(modes_.size()) {}

void FleetMirror::apply(MsgKind kind, const Message& m, std::uint64_t tick) {
  switch (kind) {
    case MsgKind::kSensors:
      reseed_tick_[m.cell] = tick + 1;
      reseed_[m.cell] = m;
      break;
    case MsgKind::kWorkload:
      override_active_[m.cell] = 1;
      override_[m.cell] = m;
      break;
    case MsgKind::kParams:
      params_[m.cell] = {m.a, m.b};
      break;
  }
}

double FleetMirror::expected(const sp::core::TwoBranchNet& net,
                             sp::core::InferenceWorkspace& ws,
                             std::size_t cell, double soc_before,
                             const sp::nn::Matrix& rows,
                             std::uint64_t tick) const {
  double soc = soc_before;
  if (reseed_tick_[cell] == tick + 1) {
    const Message& r = reseed_[cell];
    soc = sp::util::clamp01(net.estimate_soc(r.a, r.b, r.c, ws));
  }
  double current = rows(cell, 0);
  double temp = rows(cell, 1);
  double horizon = rows(cell, 2);
  if (override_active_[cell] != 0) {
    current = override_[cell].a;
    temp = override_[cell].b;
    horizon = override_[cell].c;
  }
  if (modes_[cell] == sp::serve::CellMode::kPhysicsOnly) {
    return sp::core::eq1_predict_clamped(soc, current, horizon, params_[cell]);
  }
  return sp::util::clamp01(net.predict_soc(soc, current, temp, horizon, ws));
}

bool rollout_matches(const sp::core::TwoBranchNet& net,
                     sp::core::InferenceWorkspace& ws,
                     const sp::serve::RolloutLane& lane,
                     const sp::core::Rollout& got, double tol) {
  const sp::data::WorkloadSchedule& sched = *lane.schedule;
  if (got.soc.size() != sched.num_steps() + 1) return false;
  double soc = sp::util::clamp01(
      net.estimate_soc(sched.voltage0, sched.current0, sched.temp0, ws));
  std::size_t plan_pos = 0;
  for (std::size_t step = 0; step <= sched.num_steps(); ++step) {
    if (lane.reanchor != nullptr && plan_pos < lane.reanchor->steps.size() &&
        lane.reanchor->steps[plan_pos] == step) {
      const sp::nn::Matrix& s = lane.reanchor->sensors;
      soc = sp::util::clamp01(
          net.estimate_soc(s(plan_pos, 0), s(plan_pos, 1), s(plan_pos, 2), ws));
      ++plan_pos;
    }
    if (!(std::fabs(got.soc[step] - soc) <= tol)) return false;
    if (step == sched.num_steps()) break;
    const double current = sched.workload(step, 0);
    const double horizon = sched.workload(step, 2);
    soc = lane.kind == sp::serve::LaneKind::kPhysicsOnly
              ? sp::core::eq1_predict_clamped(soc, current, horizon,
                                              lane.params)
              : sp::util::clamp01(net.predict_soc(
                    soc, current, sched.workload(step, 1), horizon, ws));
  }
  return true;
}

}  // namespace perfbench
