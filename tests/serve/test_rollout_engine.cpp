/// The tentpole contract of the batched rollout engine:
///
///  * batch-of-1 output is bitwise identical to the legacy scalar walk
///    (and therefore to core::rollout_cascade / rollout_physics_only,
///    which are wrappers over the engine) — checked both against a
///    hand-written scalar reference and on LG-like / Sandia-like test
///    traces;
///  * results are invariant to thread count on ragged fleets (lanes
///    retire without reshuffling shard boundaries);
///  * physics-only lanes ride in the same pass as NN lanes;
///  * closed-loop lanes (scheduled mid-rollout Branch-1 re-anchors) are
///    bitwise the synchronous sequence of open-loop segments glued by
///    explicit re-seeds, mix freely with open-loop and physics lanes, and
///    their plans are validated at run entry with errors naming the lane.

#include "serve/rollout_engine.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "battery/coulomb.hpp"
#include "core/predictor.hpp"
#include "data/lg.hpp"
#include "data/sandia.hpp"
#include "support/fitted_net.hpp"
#include "support/rollout_reference.hpp"
#include "util/math.hpp"

namespace socpinn::serve {
namespace {

/// The legacy per-trace walk (pre-refactor rollout_cascade shape) with the
/// engine's default clamping: scalar batch-of-1 forwards, one step per
/// window.
core::Rollout scalar_reference(const core::TwoBranchNet& net,
                               const data::WorkloadSchedule& schedule,
                               bool clamp) {
  core::InferenceWorkspace ws;
  core::Rollout r;
  r.times_s = schedule.times_s;
  r.truth = schedule.truth;
  double soc = net.estimate_soc(schedule.voltage0, schedule.current0,
                                schedule.temp0, ws);
  if (clamp) soc = util::clamp01(soc);
  r.soc.push_back(soc);
  for (std::size_t w = 0; w < schedule.num_steps(); ++w) {
    soc = net.predict_soc(soc, schedule.workload(w, 0),
                          schedule.workload(w, 1), schedule.workload(w, 2),
                          ws);
    if (clamp) soc = util::clamp01(soc);
    r.soc.push_back(soc);
  }
  return r;
}

/// The literal pre-refactor rollout_physics_only walk: clamped Branch-1
/// seed, one clamped Eq. 1 step per window.
core::Rollout physics_reference(const core::TwoBranchNet& net,
                                const data::WorkloadSchedule& schedule,
                                double capacity_ah) {
  core::InferenceWorkspace ws;
  core::Rollout r;
  r.times_s = schedule.times_s;
  r.truth = schedule.truth;
  double soc = util::clamp01(net.estimate_soc(
      schedule.voltage0, schedule.current0, schedule.temp0, ws));
  r.soc.push_back(soc);
  for (std::size_t w = 0; w < schedule.num_steps(); ++w) {
    soc = battery::coulomb_predict_clamped(soc, schedule.workload(w, 0),
                                           schedule.workload(w, 2),
                                           capacity_ah);
    r.soc.push_back(soc);
  }
  return r;
}

void expect_bitwise_equal(const core::Rollout& a, const core::Rollout& b,
                          const char* what) {
  ASSERT_EQ(a.soc.size(), b.soc.size()) << what;
  ASSERT_EQ(a.times_s.size(), b.times_s.size()) << what;
  for (std::size_t i = 0; i < a.soc.size(); ++i) {
    // Bitwise identity, not approximate: batching and sharding must not
    // change a single ulp.
    EXPECT_EQ(a.soc[i], b.soc[i]) << what << " step " << i;
    EXPECT_EQ(a.times_s[i], b.times_s[i]) << what << " time " << i;
    EXPECT_EQ(a.truth[i], b.truth[i]) << what << " truth " << i;
  }
}

TEST(RolloutEngine, BatchOfOneMatchesScalarReference) {
  const core::TwoBranchNet net = testing::make_fitted_net(17);
  const data::Trace trace = testing::synthetic_trace(120, 5);
  const data::WorkloadSchedule schedule =
      data::build_workload_schedule(trace, 60.0);

  RolloutEngine engine(net, {.threads = 1});
  const core::Rollout batched = engine.run_single(schedule);
  const core::Rollout reference = scalar_reference(net, schedule, true);
  expect_bitwise_equal(batched, reference, "batch-of-1");
}

TEST(RolloutEngine, BatchedLanesMatchScalarReferenceLaneByLane) {
  const core::TwoBranchNet net = testing::make_fitted_net(17);
  const std::vector<data::Trace> fleet = testing::synthetic_fleet(67, 11);
  const std::vector<data::WorkloadSchedule> schedules =
      data::build_workload_schedules(fleet, 30.0);

  // At 3 threads every shard fits one column tile; at 1 thread the shard
  // is a full 64-lane tile plus a 3-lane tail padded to 32 columns. This
  // net clamps almost every prediction to 0 or 1, so only the unclamped
  // pass tells one lane's result from another's.
  for (const bool clamp : {true, false}) {
    for (const std::size_t threads : {std::size_t{3}, std::size_t{1}}) {
      SCOPED_TRACE(::testing::Message()
                   << threads << " threads, clamp " << clamp);
      RolloutEngine engine(net, {.threads = threads, .clamp_soc = clamp});
      const std::vector<core::Rollout> rollouts = engine.run(schedules);
      ASSERT_EQ(rollouts.size(), schedules.size());
      for (std::size_t i = 0; i < schedules.size(); ++i) {
        const core::Rollout reference =
            scalar_reference(net, schedules[i], clamp);
        expect_bitwise_equal(rollouts[i], reference, "lane");
      }
    }
  }
}

TEST(RolloutEngine, MatchesLegacyWrappersOnLgTestTraces) {
  const core::TwoBranchNet net = testing::make_fitted_net(23);
  const data::LgDataset dataset = data::generate_lg(data::LgConfig{});

  std::vector<data::WorkloadSchedule> schedules;
  std::vector<core::Rollout> wrappers;
  for (const auto& run : dataset.test_runs) {
    schedules.push_back(data::build_workload_schedule(run.trace, 30.0));
    wrappers.push_back(core::rollout_cascade(net, run.trace, 30.0));
  }
  RolloutEngine engine(net, {.threads = 2});
  const std::vector<core::Rollout> batched = engine.run(schedules);
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    const char* cycle = dataset.test_runs[i].cycle_name.c_str();
    // Non-circular: the hand-written scalar walk is the ground truth; the
    // wrapper comparison then pins the public API to the same numbers.
    expect_bitwise_equal(batched[i], scalar_reference(net, schedules[i], true),
                         cycle);
    expect_bitwise_equal(batched[i], wrappers[i], cycle);
  }

  // The literal pre-refactor rollout_cascade semantics (no clamping
  // anywhere) are preserved behind the knob: clamp_soc = false reproduces
  // the unclamped legacy walk bitwise on every LG test trace.
  RolloutEngine raw(net, {.threads = 2, .clamp_soc = false});
  const std::vector<core::Rollout> unclamped = raw.run(schedules);
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    expect_bitwise_equal(unclamped[i],
                         scalar_reference(net, schedules[i], false),
                         dataset.test_runs[i].cycle_name.c_str());
  }
}

TEST(RolloutEngine, MatchesLegacyWrappersOnSandiaTestTraces) {
  const core::TwoBranchNet net = testing::make_fitted_net(29);
  data::SandiaConfig config;
  config.chemistries = {battery::Chemistry::kNmc};
  config.ambient_temps_c = {25.0};
  const data::SandiaDataset dataset = data::generate_sandia(config);

  std::vector<data::WorkloadSchedule> schedules;
  std::vector<RolloutLane> lanes;
  std::vector<core::Rollout> legacy;
  schedules.reserve(2 * dataset.test_runs.size());
  for (const auto& run : dataset.test_runs) {
    schedules.push_back(data::build_workload_schedule(run.trace, 240.0));
    legacy.push_back(core::rollout_cascade(net, run.trace, 240.0));
    schedules.push_back(data::build_workload_schedule(run.trace, 240.0));
    legacy.push_back(core::rollout_physics_only(net, run.trace, 240.0, {.capacity_ah = 3.0}));
  }
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    RolloutLane lane;
    lane.schedule = &schedules[i];
    if (i % 2 == 1) {
      lane.kind = LaneKind::kPhysicsOnly;
      lane.params.capacity_ah = 3.0;
    }
    lanes.push_back(lane);
  }
  RolloutEngine engine(net, {.threads = 2});
  const std::vector<core::Rollout> batched = engine.run(lanes);
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    expect_bitwise_equal(batched[i], legacy[i],
                         i % 2 == 0 ? "cascade" : "physics");
    // Non-circular ground truth: physics lanes must equal the literal
    // pre-refactor clamped Eq. 1 walk (unchanged semantics), cascade lanes
    // the scalar walk under the engine's default clamping.
    expect_bitwise_equal(
        batched[i],
        i % 2 == 0 ? scalar_reference(net, schedules[i], true)
                   : physics_reference(net, schedules[i], 3.0),
        i % 2 == 0 ? "cascade reference" : "physics reference");
  }
}

TEST(RolloutEngine, ResultsInvariantToThreadCountOnRaggedFleet) {
  const core::TwoBranchNet net = testing::make_fitted_net(31);
  const std::vector<data::Trace> fleet = testing::synthetic_fleet(53, 41);
  const std::vector<data::WorkloadSchedule> schedules =
      data::build_workload_schedules(fleet, 30.0);

  RolloutEngine single(net, {.threads = 1});
  const std::vector<core::Rollout> base = single.run(schedules);
  for (const std::size_t threads :
       {std::size_t{2}, std::size_t{4}, std::size_t{7}}) {
    RolloutEngine engine(net, {.threads = threads});
    const std::vector<core::Rollout> multi = engine.run(schedules);
    ASSERT_EQ(multi.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      expect_bitwise_equal(multi[i], base[i], "thread invariance");
    }
  }
}

TEST(RolloutEngine, PhysicsLanesRideTheSamePass) {
  const core::TwoBranchNet net = testing::make_fitted_net(37);
  const data::Trace trace = testing::synthetic_trace(90, 3);
  const data::WorkloadSchedule schedule =
      data::build_workload_schedule(trace, 30.0);

  const std::vector<RolloutLane> lanes = {
      {&schedule, LaneKind::kCascade},
      {&schedule, LaneKind::kPhysicsOnly, {.capacity_ah = 3.0}},
  };
  RolloutEngine engine(net, {.threads = 2});
  const std::vector<core::Rollout> both = engine.run(lanes);
  ASSERT_EQ(both.size(), 2u);

  // NN lane equals the NN wrapper, physics lane equals the physics wrapper.
  expect_bitwise_equal(both[0], core::rollout_cascade(net, trace, 30.0),
                       "cascade lane");
  expect_bitwise_equal(both[1],
                       core::rollout_physics_only(net, trace, 30.0, {.capacity_ah = 3.0}),
                       "physics lane");

  // And the physics lane really is Eq. 1: recompute one step by hand.
  ASSERT_GE(both[1].soc.size(), 2u);
  EXPECT_EQ(both[1].soc[1],
            battery::coulomb_predict_clamped(both[1].soc[0],
                                             schedule.workload(0, 0),
                                             schedule.workload(0, 2), 3.0));
}

TEST(RolloutEngine, ClampKnobIsHonored) {
  const core::TwoBranchNet net = testing::make_fitted_net(43);
  const data::Trace trace = testing::synthetic_trace(80, 9);
  const data::WorkloadSchedule schedule =
      data::build_workload_schedule(trace, 30.0);

  RolloutEngine clamped(net, {.threads = 1, .clamp_soc = true});
  for (const double s : clamped.run_single(schedule).soc) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }

  RolloutEngine raw(net, {.threads = 1, .clamp_soc = false});
  const core::Rollout unclamped = raw.run_single(schedule);
  expect_bitwise_equal(unclamped, scalar_reference(net, schedule, false),
                       "unclamped");
  // The untrained net wanders out of [0, 1] — the knob must matter.
  bool out_of_range = false;
  for (const double s : unclamped.soc) {
    if (s < 0.0 || s > 1.0) out_of_range = true;
  }
  EXPECT_TRUE(out_of_range)
      << "fixture never left [0, 1]; clamp test is vacuous";
}

TEST(RolloutEngine, RunIntoReusesCallerBuffers) {
  const core::TwoBranchNet net = testing::make_fitted_net(47);
  const std::vector<data::Trace> fleet = testing::synthetic_fleet(9, 19);
  const std::vector<data::WorkloadSchedule> schedules =
      data::build_workload_schedules(fleet, 30.0);
  std::vector<RolloutLane> lanes(schedules.size());
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    lanes[i].schedule = &schedules[i];
  }

  RolloutEngine engine(net, {.threads = 2});
  std::vector<core::Rollout> out(lanes.size());
  engine.run_into(lanes, out);
  const std::vector<core::Rollout> expected = engine.run(lanes);
  for (std::size_t i = 0; i < out.size(); ++i) {
    expect_bitwise_equal(out[i], expected[i], "first run_into");
  }
  // Second run into the same buffers must refill, not append.
  engine.run_into(lanes, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    expect_bitwise_equal(out[i], expected[i], "second run_into");
  }
}

/// Scalar closed-loop reference: the open-loop scalar walk with explicit
/// Branch-1 re-seeds at the plan's step indices — the "synchronous
/// sequence of open-loop segments glued by explicit re-seeds" the batched
/// engine must reproduce bitwise. Handles both advancement rules.
core::Rollout closed_loop_reference(const core::TwoBranchNet& net,
                                    const data::WorkloadSchedule& schedule,
                                    const data::ReanchorPlan& plan,
                                    LaneKind kind, double capacity_ah) {
  core::InferenceWorkspace ws;
  core::Rollout r;
  r.times_s = schedule.times_s;
  r.truth = schedule.truth;
  double soc = util::clamp01(net.estimate_soc(
      schedule.voltage0, schedule.current0, schedule.temp0, ws));
  r.soc.push_back(soc);
  std::size_t pos = 0;
  for (std::size_t w = 0; w < schedule.num_steps(); ++w) {
    if (pos < plan.steps.size() && plan.steps[pos] == w) {
      soc = util::clamp01(net.estimate_soc(plan.sensors(pos, 0),
                                           plan.sensors(pos, 1),
                                           plan.sensors(pos, 2), ws));
      r.soc.back() = soc;
      ++pos;
    }
    soc = kind == LaneKind::kCascade
              ? util::clamp01(net.predict_soc(soc, schedule.workload(w, 0),
                                              schedule.workload(w, 1),
                                              schedule.workload(w, 2), ws))
              : battery::coulomb_predict_clamped(soc, schedule.workload(w, 0),
                                                 schedule.workload(w, 2),
                                                 capacity_ah);
    r.soc.push_back(soc);
  }
  return r;
}

TEST(RolloutEngine, ClosedLoopLaneMatchesScalarReseedReference) {
  const core::TwoBranchNet net = testing::make_fitted_net(59);
  const data::Trace trace = testing::synthetic_trace(130, 7);
  const data::WorkloadSchedule schedule =
      data::build_workload_schedule(trace, 60.0);
  const data::ReanchorPlan plan = data::build_reanchor_plan(trace, 60.0, 5);
  ASSERT_GE(plan.size(), 2u) << "fixture too short to re-anchor twice";

  RolloutEngine engine(net, {.threads = 1});
  const core::Rollout batched =
      engine.run_single(schedule, LaneKind::kCascade, {.capacity_ah = 0.0}, &plan);
  expect_bitwise_equal(
      batched,
      closed_loop_reference(net, schedule, plan, LaneKind::kCascade, 0.0),
      "closed-loop batch-of-1");

  // Physics-only closed loop: Coulomb counting with periodic measurement
  // correction — Eq. 1 between re-anchors, Branch 1 at them.
  const core::Rollout physics =
      engine.run_single(schedule, LaneKind::kPhysicsOnly, {.capacity_ah = 3.0}, &plan);
  expect_bitwise_equal(
      physics,
      closed_loop_reference(net, schedule, plan, LaneKind::kPhysicsOnly, 3.0),
      "closed-loop physics batch-of-1");
}

TEST(RolloutEngine, ClosedLoopMatchesGluedOpenLoopSegments) {
  // The tentpole equivalence in its segment form: a lane re-anchored at
  // steps s_1 < s_2 < ... must equal the concatenation of open-loop
  // rollouts restarted from the trace at each s_j — the engine's own
  // open-loop path on trace.slice(s_j * k, end) supplies each segment, so
  // the test holds bitwise for any advancement the engine supports.
  const core::TwoBranchNet net = testing::make_fitted_net(61);
  const data::Trace trace = testing::synthetic_trace(140, 13);
  const double horizon_s = 60.0;
  const std::size_t k = 2;  // 60 s horizon on the 30 s synthetic cadence
  const data::WorkloadSchedule schedule =
      data::build_workload_schedule(trace, horizon_s);
  const data::ReanchorPlan plan =
      data::build_reanchor_plan(trace, horizon_s, 25);
  ASSERT_GE(plan.size(), 2u);

  RolloutEngine engine(net, {.threads = 1});
  const core::Rollout closed =
      engine.run_single(schedule, LaneKind::kCascade, {.capacity_ah = 0.0}, &plan);

  const std::vector<double> glued = testing::glued_open_loop_soc(
      engine, trace, horizon_s, k, schedule, plan);
  ASSERT_EQ(glued.size(), closed.soc.size());
  for (std::size_t s = 0; s < glued.size(); ++s) {
    EXPECT_EQ(closed.soc[s], glued[s]) << "glued step " << s;
  }
}

TEST(RolloutEngine, ReanchorPlanAtStepZeroReproducesPlainSeed) {
  // A plan firing at step 0 with the schedule's own t0 sensors must be a
  // no-op: the re-anchor batch re-estimates the seed row, and per-row
  // independence of the batched estimate makes it bitwise the plain seed.
  const core::TwoBranchNet net = testing::make_fitted_net(67);
  const data::Trace trace = testing::synthetic_trace(90, 21);
  const data::WorkloadSchedule schedule =
      data::build_workload_schedule(trace, 30.0);
  data::ReanchorPlan plan;
  plan.steps = {0};
  plan.sensors = nn::Matrix(1, 3);
  plan.sensors(0, 0) = schedule.voltage0;
  plan.sensors(0, 1) = schedule.current0;
  plan.sensors(0, 2) = schedule.temp0;

  RolloutEngine engine(net, {.threads = 1});
  expect_bitwise_equal(
      engine.run_single(schedule, LaneKind::kCascade, {.capacity_ah = 0.0}, &plan),
      engine.run_single(schedule), "step-0 re-anchor");
}

TEST(RolloutEngine, MixedOpenClosedPhysicsFleetInvariantToThreadCount) {
  // One pass mixing open-loop NN, closed-loop NN, physics-only, and
  // closed-loop physics lanes over a ragged fleet: every lane bitwise
  // matches its scalar reference, at 1, 2, and 8 threads.
  const core::TwoBranchNet net = testing::make_fitted_net(71);
  const std::vector<data::Trace> fleet = testing::synthetic_fleet(41, 77);
  const std::vector<data::WorkloadSchedule> schedules =
      data::build_workload_schedules(fleet, 30.0);
  std::vector<data::ReanchorPlan> plans;
  plans.reserve(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    plans.push_back(data::build_reanchor_plan(fleet[i], 30.0, 3 + i % 4));
  }

  std::vector<RolloutLane> lanes(schedules.size());
  std::vector<core::Rollout> reference(schedules.size());
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    lanes[i].schedule = &schedules[i];
    if (i % 3 == 1) {
      lanes[i].kind = LaneKind::kPhysicsOnly;
      lanes[i].params.capacity_ah = 3.0;
    }
    if (i % 2 == 0) lanes[i].reanchor = &plans[i];  // mixed open/closed
    reference[i] = closed_loop_reference(
        net, schedules[i],
        lanes[i].reanchor != nullptr ? plans[i] : data::ReanchorPlan{},
        lanes[i].kind, lanes[i].params.capacity_ah);
  }

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    RolloutEngine engine(net, {.threads = threads});
    const std::vector<core::Rollout> batched = engine.run(lanes);
    ASSERT_EQ(batched.size(), reference.size());
    for (std::size_t i = 0; i < batched.size(); ++i) {
      expect_bitwise_equal(batched[i], reference[i], "mixed fleet lane");
    }
  }
}

TEST(RolloutEngine, ClosedLoopWrapperMatchesEngine) {
  const core::TwoBranchNet net = testing::make_fitted_net(73);
  const data::Trace trace = testing::synthetic_trace(100, 3);
  const data::ReanchorPlan plan = data::build_reanchor_plan(trace, 30.0, 8);
  const data::WorkloadSchedule schedule =
      data::build_workload_schedule(trace, 30.0);

  RolloutEngine engine(net, {.threads = 1});
  expect_bitwise_equal(
      core::rollout_closed_loop(net, trace, 30.0, plan),
      engine.run_single(schedule, LaneKind::kCascade, {.capacity_ah = 0.0}, &plan),
      "closed-loop wrapper");

  // An empty plan is an open-loop lane: the wrapper degenerates to
  // rollout_cascade.
  const data::ReanchorPlan empty;
  expect_bitwise_equal(core::rollout_closed_loop(net, trace, 30.0, empty),
                       core::rollout_cascade(net, trace, 30.0),
                       "empty-plan wrapper");
}

TEST(RolloutEngine, ValidatesReanchorPlansNamingTheLane) {
  const core::TwoBranchNet net = testing::make_fitted_net(79);
  const data::Trace trace = testing::synthetic_trace(50, 5);
  const data::WorkloadSchedule schedule =
      data::build_workload_schedule(trace, 30.0);
  RolloutEngine engine(net, {.threads = 1});
  const data::WorkloadSchedule ok_schedule = schedule;

  const auto expect_lane_error = [&](const data::ReanchorPlan& plan,
                                     const char* what) {
    // Lane 0 is fine; the broken plan rides on lane 1 and the error must
    // say so.
    const std::vector<RolloutLane> lanes = {
        {&ok_schedule, LaneKind::kCascade, {.capacity_ah = 0.0}, nullptr},
        {&schedule, LaneKind::kCascade, {.capacity_ah = 0.0}, &plan},
    };
    try {
      (void)engine.run(lanes);
      FAIL() << what << ": expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("lane 1"), std::string::npos)
          << what << ": error must name the lane: " << e.what();
    }
  };

  data::ReanchorPlan unsorted;
  unsorted.steps = {5, 3};
  unsorted.sensors = nn::Matrix(2, 3, 3.7);
  expect_lane_error(unsorted, "unsorted steps");

  data::ReanchorPlan beyond;
  beyond.steps = {schedule.num_steps()};
  beyond.sensors = nn::Matrix(1, 3, 3.7);
  expect_lane_error(beyond, "step beyond schedule");

  data::ReanchorPlan misshapen;
  misshapen.steps = {1, 2};
  misshapen.sensors = nn::Matrix(1, 3, 3.7);
  expect_lane_error(misshapen, "shape mismatch");

  data::ReanchorPlan nan_row;
  nan_row.steps = {1};
  nan_row.sensors = nn::Matrix(1, 3, 3.7);
  nan_row.sensors(0, 1) = std::numeric_limits<double>::quiet_NaN();
  expect_lane_error(nan_row, "NaN sensor");

  data::ReanchorPlan inf_row;
  inf_row.steps = {1};
  inf_row.sensors = nn::Matrix(1, 3, 3.7);
  inf_row.sensors(0, 2) = std::numeric_limits<double>::infinity();
  expect_lane_error(inf_row, "Inf sensor");
}

TEST(RolloutEngine, RejectsNonFinitePhysicsCapacityNamingTheLane) {
  // NaN slips through a plain `<= 0` check (every NaN comparison is
  // false) and ±Inf passes it too; either used to divide Eq. 1 into
  // garbage silently.
  const core::TwoBranchNet net = testing::make_fitted_net(83);
  const data::Trace trace = testing::synthetic_trace(40, 9);
  const data::WorkloadSchedule schedule =
      data::build_workload_schedule(trace, 30.0);
  RolloutEngine engine(net, {.threads = 1});

  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(), 0.0,
                           -3.0}) {
    const std::vector<RolloutLane> lanes = {
        {&schedule, LaneKind::kCascade, {.capacity_ah = 0.0}, nullptr},
        {&schedule, LaneKind::kPhysicsOnly, {.capacity_ah = bad}, nullptr},
    };
    try {
      (void)engine.run(lanes);
      FAIL() << "capacity " << bad << ": expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("lane 1"), std::string::npos)
          << e.what();
    }
  }
}

TEST(RolloutEngine, ValidatesLanes) {
  const core::TwoBranchNet net = testing::make_fitted_net(53);
  const data::Trace trace = testing::synthetic_trace(40, 1);
  const data::WorkloadSchedule schedule =
      data::build_workload_schedule(trace, 30.0);
  RolloutEngine engine(net, {.threads = 1});

  const std::vector<RolloutLane> null_lane = {{nullptr}};
  EXPECT_THROW((void)engine.run(null_lane), std::invalid_argument);

  const std::vector<RolloutLane> bad_capacity = {
      {&schedule, LaneKind::kPhysicsOnly, {.capacity_ah = 0.0}}};
  EXPECT_THROW((void)engine.run(bad_capacity), std::invalid_argument);

  std::vector<core::Rollout> too_small(0);
  const std::vector<RolloutLane> one = {{&schedule}};
  EXPECT_THROW(engine.run_into(one, too_small), std::invalid_argument);

  // Schedules are validated like FleetEngine::run(schedule): a workload
  // that is not num_steps x 3, a NaN in its last window, a NaN voltage0.
  data::WorkloadSchedule two_columns = schedule;
  two_columns.workload = nn::Matrix(5, 2, -1.0);
  two_columns.times_s.resize(6);
  two_columns.truth.resize(6);
  data::WorkloadSchedule nan_window = schedule;
  nan_window.workload(nan_window.num_steps() - 1, 1) =
      std::numeric_limits<double>::quiet_NaN();
  data::WorkloadSchedule nan_voltage = schedule;
  nan_voltage.voltage0 = std::numeric_limits<double>::quiet_NaN();
  for (const data::WorkloadSchedule* bad :
       {&two_columns, &nan_window, &nan_voltage}) {
    const std::vector<RolloutLane> lanes = {{&schedule}, {bad}};
    EXPECT_THROW((void)engine.run(lanes), std::invalid_argument);
  }

  // Empty fleets are a no-op, not an error.
  EXPECT_TRUE(engine.run(std::span<const RolloutLane>{}).empty());
}

}  // namespace
}  // namespace socpinn::serve
