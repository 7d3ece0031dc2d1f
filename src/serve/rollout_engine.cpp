#include "serve/rollout_engine.hpp"

#include <array>
#include <stdexcept>
#include <string>

#include "serve/mailbox.hpp"
#include "util/annotations.hpp"

namespace socpinn::serve {

namespace {

/// Lane-indexed argument error: a fleet run can hold thousands of lanes,
/// so "which lane" is the difference between a fixable report and a shrug.
[[noreturn]] void throw_lane_error(std::size_t lane, const std::string& what) {
  throw std::invalid_argument("RolloutEngine: lane " + std::to_string(lane) +
                              ": " + what);
}

/// Validates one lane's closed-loop plan against its schedule: shapes
/// agree, step indices strictly increasing and within the schedule, sensor
/// rows finite (the shared serve::is_finite policy — a NaN voltage would
/// poison the lane's SoC from the re-anchor on).
void validate_plan(std::size_t lane_index, const RolloutLane& lane) {
  const data::ReanchorPlan& plan = *lane.reanchor;
  if (plan.steps.empty()) return;  // empty plan == open-loop lane
  if (plan.sensors.rows() != plan.steps.size() || plan.sensors.cols() != 3) {
    throw_lane_error(lane_index,
                     "re-anchor plan needs steps.size() x 3 sensors");
  }
  const std::size_t num_steps = lane.schedule->num_steps();
  for (std::size_t j = 0; j < plan.steps.size(); ++j) {
    if (j > 0 && plan.steps[j] <= plan.steps[j - 1]) {
      throw_lane_error(lane_index,
                       "re-anchor plan steps must be strictly increasing");
    }
    if (plan.steps[j] >= num_steps) {
      throw_lane_error(lane_index,
                       "re-anchor plan step beyond the lane's schedule");
    }
    if (!is_finite(SensorReport{plan.sensors(j, 0), plan.sensors(j, 1),
                                plan.sensors(j, 2)})) {
      throw_lane_error(lane_index,
                       "re-anchor plan sensor row " + std::to_string(j) +
                           " is not finite");
    }
  }
}

}  // namespace

RolloutEngine::RolloutEngine(const core::TwoBranchNet& net,
                             RolloutConfig config)
    : EngineCore(net, config.threads, config.precision, config.clamp_soc,
                 "RolloutEngine", "RolloutConfig::precision"),
      config_(config),
      scratch_(num_threads()) {}

std::vector<core::Rollout> RolloutEngine::run(
    std::span<const RolloutLane> lanes) {
  std::vector<core::Rollout> out(lanes.size());
  run_into(lanes, out);
  return out;
}

std::vector<core::Rollout> RolloutEngine::run(
    std::span<const data::WorkloadSchedule> schedules) {
  std::vector<RolloutLane> lanes(schedules.size());
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    lanes[i].schedule = &schedules[i];
  }
  return run(lanes);
}

core::Rollout RolloutEngine::run_single(const data::WorkloadSchedule& schedule,
                                        LaneKind kind,
                                        const core::CellParams& params,
                                        const data::ReanchorPlan* reanchor) {
  const RolloutLane lane{&schedule, kind, params, reanchor};
  core::Rollout out;
  run_into({&lane, 1}, {&out, 1});
  return out;
}

void RolloutEngine::run_into(std::span<const RolloutLane> lanes,
                             std::span<core::Rollout> out) {
  if (lanes.size() != out.size()) {
    throw std::invalid_argument("RolloutEngine: lanes/out size mismatch");
  }
  if (lanes.empty()) return;
  // Validate up front: shard jobs must not throw.
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const RolloutLane& lane = lanes[i];
    if (lane.schedule == nullptr) {
      throw_lane_error(i, "lane without a schedule");
    }
    // FleetEngine::run(schedule)'s checks: the steps read 3 columns per
    // row, and a NaN input comes out of ReLU as a finite, wrong SoC.
    const data::WorkloadSchedule& sched = *lane.schedule;
    if (sched.num_steps() != 0 && sched.workload.cols() != 3) {
      throw_lane_error(i, "schedule workload needs num_steps x 3");
    }
    if (!is_finite(SensorReport{sched.voltage0, sched.current0,
                                sched.temp0})) {
      throw_lane_error(i, "schedule's t0 sensor row is not finite");
    }
    if (!rows_finite(sched.workload.data().data(), sched.num_steps())) {
      throw_lane_error(i, "schedule workload is not finite");
    }
    // core::is_valid rejects NaN/Inf (a plain `<= 0` comparison would wave
    // them through — every NaN compare is false) as well as a finite
    // capacity of 0 — any of which would silently divide Eq. 1 into
    // garbage for the whole trajectory.
    if (lane.kind == LaneKind::kPhysicsOnly && !core::is_valid(lane.params)) {
      throw_lane_error(i,
                       "physics-only lane needs valid params (finite "
                       "capacity_ah > 0, coulombic_eff in (0, 1])");
    }
    if (lane.reanchor != nullptr) {
      validate_plan(i, lane);
    }
  }

  // One acquire per run: every shard and step of this run serves the same
  // snapshot, and a concurrent swap_model lands on the next run whole.
  for_each_shard(lanes.size(), [&](const auto& model, auto& ws,
                                   std::size_t shard, std::size_t begin,
                                   std::size_t end) {
    // Lambdas are analyzed as separate functions with an empty lockset,
    // so the shard body enters the shard-execution role itself before
    // touching the REQUIRES(shard_exec_) body.
    const util::RoleGuard shard_scope(shard_exec_);
    roll_shard(model, ws, scratch_[shard], lanes, out, begin, end);
  });
}

template <typename T>
SOCPINN_HOT void RolloutEngine::roll_shard(
    const core::TwoBranchSnapshotT<T>& model, core::InferenceWorkspaceT<T>& ws,
    ShardScratch& s, std::span<const RolloutLane> lanes,
    std::span<core::Rollout> out, std::size_t begin, std::size_t end) {
  // Every NN forward is a padded panel (EngineCore::forward):
  // a ragged tail never crawls through a kernel's scalar remainder. Lane
  // SoC state and trajectories stay f64 (they are API surface); only the
  // panel arithmetic runs at T.
  const std::size_t count = end - begin;
  const auto schedule = [&](std::size_t i) -> const data::WorkloadSchedule& {
    return *lanes[begin + i].schedule;
  };

  // SOCPINN_HOT_ALLOW(resize): warm scratch capacity, shard shape fixed
  s.soc.resize(count);
  // Seed: one batched Branch-1 estimate over the shard's lanes —
  // the only time voltage is consumed (Fig. 2 discipline).
  forward(
      model.branch1(), ws, count,
      [&](std::size_t i) {
        const data::WorkloadSchedule& sched = schedule(i);
        return std::array{sched.voltage0, sched.current0, sched.temp0};
      },
      [&](std::size_t i, double seed) {
        const data::WorkloadSchedule& sched = schedule(i);
        s.soc[i] = seed;
        core::Rollout& r = out[begin + i];
        // SOCPINN_HOT_ALLOW(assign): per-run output allocation, once per
        // lane in the seed section, outside the steady-state step loop
        r.times_s.assign(sched.times_s.begin(), sched.times_s.end());
        // SOCPINN_HOT_ALLOW(assign): per-run output allocation (see above)
        r.truth.assign(sched.truth.begin(), sched.truth.end());
        r.soc.clear();
        // SOCPINN_HOT_ALLOW(reserve): per-run output allocation; sizes the
        // trajectory once so the step loop's push_back never reallocates
        r.soc.reserve(sched.times_s.size());
        // SOCPINN_HOT_ALLOW(push_back): within the capacity reserved above
        r.soc.push_back(seed);
      });

  // Lockstep steps. A lane is active while its schedule still has a
  // window at `step`; retired lanes drop out of the gather without
  // moving shard boundaries.
  // SOCPINN_HOT_ALLOW(resize): warm scratch capacity, shard shape fixed
  s.gather.resize(count);
  // SOCPINN_HOT_ALLOW(assign): warm scratch capacity, shard shape fixed
  s.plan_pos.assign(count, 0);
  for (std::size_t step = 0;; ++step) {
    std::size_t active = 0;   // gathered NN columns this step
    bool any_alive = false;
    s.pending.clear();
    for (std::size_t i = 0; i < count; ++i) {
      const RolloutLane& lane = lanes[begin + i];
      if (step >= lane.schedule->num_steps()) continue;
      any_alive = true;
      if (lane.kind == LaneKind::kCascade) s.gather[active++] = i;
      // Plan steps are validated strictly increasing and < num_steps(), so
      // the cursor never has to skip: every planned step is visited while
      // the lane is still alive.
      const data::ReanchorPlan* plan = lane.reanchor;
      std::size_t& pos = s.plan_pos[i];
      if (plan != nullptr && pos < plan->steps.size() &&
          plan->steps[pos] == step) {
        // SOCPINN_HOT_ALLOW(push_back): warm capacity, bounded by the
        // shard's lane count after the first run
        s.pending.push_back(i);
        ++pos;
      }
    }
    if (!any_alive) break;

    // Closed-loop lanes first: one batched Branch-1 re-anchor for exactly
    // the lanes whose plan fires at this step (the FleetEngine::drain_shard
    // shape). The fresh estimate replaces the trajectory point at this
    // timestamp and feeds this same step's Branch-2 / Eq. 1 input. A plan
    // step is < num_steps, so every firing lane is still alive and its
    // trajectory's last entry is the point at times_s[step].
    forward(
        model.branch1(), ws, s.pending.size(),
        [&](std::size_t g) {
          const std::size_t i = s.pending[g];
          const data::ReanchorPlan& plan = *lanes[begin + i].reanchor;
          const std::size_t row = s.plan_pos[i] - 1;
          return std::array{plan.sensors(row, 0), plan.sensors(row, 1),
                            plan.sensors(row, 2)};
        },
        [&](std::size_t g, double soc) {
          const std::size_t i = s.pending[g];
          s.soc[i] = soc;
          out[begin + i].soc.back() = soc;
        });

    forward(
        model.branch2(), ws, active,
        [&](std::size_t g) {
          const std::size_t i = s.gather[g];
          const data::WorkloadSchedule& sched = schedule(i);
          return std::array{s.soc[i], sched.workload(step, 0),
                            sched.workload(step, 1), sched.workload(step, 2)};
        },
        [&](std::size_t g, double soc) {
          const std::size_t i = s.gather[g];
          s.soc[i] = soc;
          // SOCPINN_HOT_ALLOW(push_back): within the trajectory capacity
          // reserved in the seed section
          out[begin + i].soc.push_back(soc);
        });

    // Physics-only lanes advance with Eq. 1 in f64 in the same pass, each
    // from its own lane params (bitwise equal to the old rated-capacity
    // call at the default coulombic_eff of 1.0): three flops gain nothing
    // from narrowing, and both precisions' physics baselines stay
    // identical.
    for (std::size_t i = 0; i < count; ++i) {
      const RolloutLane& lane = lanes[begin + i];
      if (lane.kind != LaneKind::kPhysicsOnly) continue;
      const data::WorkloadSchedule& sched = *lane.schedule;
      if (step >= sched.num_steps()) continue;
      const double soc = clamp_soc(core::eq1_predict(
          s.soc[i], sched.workload(step, 0), sched.workload(step, 2),
          lane.params));
      s.soc[i] = soc;
      // SOCPINN_HOT_ALLOW(push_back): within the trajectory capacity
      // reserved in the seed section
      out[begin + i].soc.push_back(soc);
    }
  }
}

}  // namespace socpinn::serve
