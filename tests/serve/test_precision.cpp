/// The contract of the f32 serve backend (Precision::kFloat32):
///
///  * the f64 path is the default and stays bitwise what it was — the f32
///    backend is opt-in per engine and never touches the source net;
///  * the f32 rollout/fleet results track f64 within 1e-4 SoC on LG-like
///    and Sandia-like test traces (far below the paper's ~1-2% RMSE), the
///    committed tolerance of the reduced-precision backend;
///  * physics-only lanes are identical in both precisions (Eq. 1 always
///    runs in f64);
///  * f32 results are bitwise invariant to thread count, same shard
///    contract as f64 (per-column panel results are independent of the
///    gathered batch width);
///  * the TwoBranchSnapshotT<double> instantiation reproduces the f64
///    net's panel forwards bitwise, pinning the snapshot to the reference.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/net_snapshot.hpp"
#include "data/lg.hpp"
#include "data/sandia.hpp"
#include "nn/dense.hpp"
#include "serve/fleet_engine.hpp"
#include "serve/rollout_engine.hpp"
#include "support/fitted_net.hpp"
#include "support/rollout_reference.hpp"
#include "util/rng.hpp"

namespace socpinn::serve {
namespace {

using testing::random_sensors;
using testing::random_workload;

void expect_soc_close(const core::Rollout& f32, const core::Rollout& f64,
                      double tol, const char* what) {
  ASSERT_EQ(f32.soc.size(), f64.soc.size()) << what;
  for (std::size_t i = 0; i < f32.soc.size(); ++i) {
    EXPECT_NEAR(f32.soc[i], f64.soc[i], tol) << what << " step " << i;
  }
}

TEST(SnapshotParity, DoubleSnapshotMatchesNetPanelsBitwise) {
  const core::TwoBranchNet net = testing::make_fitted_net(61);
  const core::TwoBranchSnapshotT<double> snapshot(net);
  util::Rng rng(3);

  // Branch 2: compare against the net's own feature-major panel path.
  const nn::Matrix b2_rows = testing::random_branch2(70, rng);
  nn::Matrix b2_cols(4, 70);
  nn::MatrixT<double> b2_panel(4, 70);
  for (std::size_t r = 0; r < 70; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      b2_cols(c, r) = b2_rows(r, c);
      b2_panel(c, r) = b2_rows(r, c);
    }
  }
  core::InferenceWorkspace ws;
  core::InferenceWorkspaceT<double> wst;
  const nn::Matrix& expected = net.predict_batch_columns(b2_cols, ws);
  const nn::MatrixT<double>& got = snapshot.predict_columns(b2_panel, wst);
  ASSERT_EQ(got.cols(), expected.cols());
  for (std::size_t j = 0; j < got.cols(); ++j) {
    EXPECT_EQ(got(0, j), expected(0, j)) << "branch2 col " << j;
  }

  // Branch 1: the row-major estimate on the transposed input — bitwise
  // equal because the panel and row paths already agree bitwise in f64.
  const nn::Matrix sensors = random_sensors(64, rng);
  nn::MatrixT<double> sensors_panel(3, 64);
  for (std::size_t r = 0; r < 64; ++r) {
    for (std::size_t c = 0; c < 3; ++c) sensors_panel(c, r) = sensors(r, c);
  }
  const nn::Matrix& est = net.estimate_batch(sensors, ws);
  const nn::MatrixT<double>& est_got =
      snapshot.estimate_columns(sensors_panel, wst);
  for (std::size_t r = 0; r < 64; ++r) {
    EXPECT_EQ(est_got(0, r), est(r, 0)) << "branch1 row " << r;
  }
}

TEST(SnapshotParity, RequiresFittedScalers) {
  const core::TwoBranchNet unfitted({}, 5);  // scalers never fitted
  // A raw snapshot converts lazily, like the net itself: its first
  // forward demands the fitted scaler.
  const core::TwoBranchSnapshotF32 snapshot(unfitted);
  core::InferenceWorkspaceT<float> ws;
  EXPECT_THROW((void)snapshot.estimate_columns(nn::MatrixT<float>(3, 32), ws),
               std::logic_error);
  EXPECT_THROW(core::TwoBranchSnapshot(unfitted, core::Precision::kFloat32),
               std::invalid_argument);
  // f64 snapshots of an untrained net are fine (nothing to convert);
  // inference will still demand fitted scalers, but construction is lazy.
  EXPECT_NO_THROW(core::TwoBranchSnapshot(unfitted,
                                          core::Precision::kFloat64));
}

TEST(SnapshotParity, RejectsBranchesThatCannotTakeTheirInputs) {
  // Structural checks run when the snapshot is built, at both precisions:
  // each branch's first dense layer must take its 3 / 4 raw inputs and a
  // fitted scaler must standardize that many features. (An unfitted
  // scaler keeps the lazy throw at first forward, pinned above.)
  util::Rng rng(7);
  core::TwoBranchNet wide_branch1 = testing::make_fitted_net(5);
  wide_branch1.branch1() = nn::Mlp::make({4, 8, 1}, rng);
  core::TwoBranchNet narrow_branch2 = testing::make_fitted_net(5);
  narrow_branch2.branch2() = nn::Mlp::make({3, 8, 1}, rng);
  core::TwoBranchNet short_scaler2 = testing::make_fitted_net(5);
  short_scaler2.scaler2() =
      nn::StandardScaler::from_moments({0.5, -1.5, 25.0}, {0.25, 2.0, 8.0});
  // A branch must end in one SoC output, and every weight must be finite.
  core::TwoBranchNet two_outputs = testing::make_fitted_net(5);
  two_outputs.branch2() = nn::Mlp::make({4, 8, 2}, rng);
  core::TwoBranchNet nan_weight = testing::make_fitted_net(5);
  dynamic_cast<nn::Dense&>(nan_weight.branch2().layer(0)).weights()(0, 0) =
      std::numeric_limits<double>::quiet_NaN();
  for (const core::Precision precision :
       {core::Precision::kFloat64, core::Precision::kFloat32}) {
    for (const core::TwoBranchNet* net :
         {&wide_branch1, &narrow_branch2, &short_scaler2, &two_outputs,
          &nan_weight}) {
      EXPECT_THROW(core::TwoBranchSnapshot(*net, precision),
                   std::invalid_argument);
    }
  }
}

TEST(SnapshotParity, ServingAnUnfittedF64NetThrowsLogicError) {
  // The lazy half of the contract above: the f64 snapshot of an unfitted
  // net has no scaler moments, so the first serve call throws like the
  // net's own inference instead of standardizing with missing moments.
  const core::TwoBranchNet unfitted({}, 5);
  FleetConfig config;
  config.threads = 1;
  FleetEngine fleet(unfitted, 4, config);
  EXPECT_THROW(fleet.step(nn::Matrix(4, 3, 1.0)), std::logic_error);
  RolloutEngine rollout(unfitted, {.threads = 1});
  const data::WorkloadSchedule schedule =
      data::build_workload_schedule(testing::synthetic_trace(40, 1), 30.0);
  EXPECT_THROW((void)rollout.run_single(schedule), std::logic_error);
}

TEST(SnapshotParity, UntrainedF32EngineFailsAtConstructionNamingTheKnob) {
  // Regression contract: requesting the f32 backend with an untrained net
  // must fail at engine construction with std::invalid_argument naming
  // the precision knob — not wherever TwoBranchSnapshotF32 happened to
  // blow up first (a logic_error from deep inside the scaler conversion).
  const core::TwoBranchNet unfitted({}, 5);

  try {
    RolloutConfig config;
    config.precision = core::Precision::kFloat32;
    RolloutEngine engine(unfitted, config);
    FAIL() << "RolloutEngine accepted an untrained net at kFloat32";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("RolloutConfig::precision"),
              std::string::npos)
        << "message does not name the knob: " << e.what();
  }

  try {
    FleetConfig config;
    config.precision = core::Precision::kFloat32;
    FleetEngine engine(unfitted, 4, config);
    FAIL() << "FleetEngine accepted an untrained net at kFloat32";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("FleetConfig::precision"),
              std::string::npos)
        << "message does not name the knob: " << e.what();
  }

  // The f64 default keeps accepting untrained nets (construction does not
  // run inference), so training-loop tooling can build engines eagerly.
  EXPECT_NO_THROW(FleetEngine(unfitted, 4, FleetConfig{.threads = 1}));
}

TEST(RolloutPrecision, F32TracksF64OnLgTestTraces) {
  const core::TwoBranchNet net = testing::make_fitted_net(23);
  const data::LgDataset dataset = data::generate_lg(data::LgConfig{});

  std::vector<data::WorkloadSchedule> schedules;
  for (const auto& run : dataset.test_runs) {
    schedules.push_back(data::build_workload_schedule(run.trace, 30.0));
  }
  RolloutEngine f64(net, {.threads = 2});
  RolloutEngine f32(net, {.threads = 2,
                          .precision = core::Precision::kFloat32});
  const std::vector<core::Rollout> base = f64.run(schedules);
  const std::vector<core::Rollout> reduced = f32.run(schedules);
  ASSERT_EQ(reduced.size(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    expect_soc_close(reduced[i], base[i], 1e-4,
                     dataset.test_runs[i].cycle_name.c_str());
  }
}

TEST(RolloutPrecision, F32TracksF64OnSandiaTestTracesAndPhysicsIsExact) {
  const core::TwoBranchNet net = testing::make_fitted_net(29);
  data::SandiaConfig config;
  config.chemistries = {battery::Chemistry::kNmc};
  config.ambient_temps_c = {25.0};
  const data::SandiaDataset dataset = data::generate_sandia(config);

  std::vector<data::WorkloadSchedule> schedules;
  for (const auto& run : dataset.test_runs) {
    schedules.push_back(data::build_workload_schedule(run.trace, 240.0));
  }
  std::vector<RolloutLane> lanes;
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    lanes.push_back({&schedules[i], LaneKind::kCascade, 0.0});
    lanes.push_back({&schedules[i], LaneKind::kPhysicsOnly, {.capacity_ah = 3.0}});
  }
  RolloutEngine f64(net, {.threads = 2});
  RolloutEngine f32(net, {.threads = 2,
                          .precision = core::Precision::kFloat32});
  const std::vector<core::Rollout> base = f64.run(lanes);
  const std::vector<core::Rollout> reduced = f32.run(lanes);
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    if (lanes[i].kind == LaneKind::kPhysicsOnly) {
      // Physics lanes never narrow: Eq. 1 runs in f64 either way, and the
      // Branch-1 seed is the only f32 step — but the seed feeds the NN
      // cascade only after clamping, so compare step by step with the f32
      // seed tolerance.
      ASSERT_EQ(reduced[i].soc.size(), base[i].soc.size());
      for (std::size_t s = 0; s < base[i].soc.size(); ++s) {
        EXPECT_NEAR(reduced[i].soc[s], base[i].soc[s], 1e-4)
            << "physics lane " << i << " step " << s;
      }
    } else {
      expect_soc_close(reduced[i], base[i], 1e-4, "sandia cascade");
    }
  }
}

TEST(RolloutPrecision, F32ResultsInvariantToThreadCount) {
  const core::TwoBranchNet net = testing::make_fitted_net(31);
  const std::vector<data::Trace> fleet = testing::synthetic_fleet(53, 41);
  const std::vector<data::WorkloadSchedule> schedules =
      data::build_workload_schedules(fleet, 30.0);

  RolloutEngine single(net, {.threads = 1,
                             .precision = core::Precision::kFloat32});
  const std::vector<core::Rollout> base = single.run(schedules);
  for (const std::size_t threads :
       {std::size_t{2}, std::size_t{4}, std::size_t{7}}) {
    RolloutEngine engine(net, {.threads = threads,
                               .precision = core::Precision::kFloat32});
    const std::vector<core::Rollout> multi = engine.run(schedules);
    ASSERT_EQ(multi.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      ASSERT_EQ(multi[i].soc.size(), base[i].soc.size());
      for (std::size_t s = 0; s < base[i].soc.size(); ++s) {
        // Bitwise: per-column panel results are independent of the
        // gathered batch width, so sharding must not change an ulp even
        // at f32.
        EXPECT_EQ(multi[i].soc[s], base[i].soc[s])
            << "lane " << i << " step " << s << " threads " << threads;
      }
    }
  }
}

TEST(RolloutPrecision, ClosedLoopF32MatchesGluedSegmentsAndTracksF64) {
  // The closed-loop contract survives precision reduction: a re-anchored
  // f32 lane is bitwise the glued sequence of open-loop f32 segments
  // restarted at each re-anchor (the engine's own open-loop path on the
  // sliced trace supplies the segments), and the whole closed-loop f32
  // trajectory tracks f64 within the backend's committed 1e-4 — with
  // margin, since re-anchors reset accumulated float drift.
  const core::TwoBranchNet net = testing::make_fitted_net(47);
  const data::Trace trace = testing::synthetic_trace(140, 13);
  const double horizon_s = 60.0;
  const std::size_t k = 2;  // 60 s horizon on the 30 s synthetic cadence
  const data::WorkloadSchedule schedule =
      data::build_workload_schedule(trace, horizon_s);
  const data::ReanchorPlan plan =
      data::build_reanchor_plan(trace, horizon_s, 25);
  ASSERT_GE(plan.size(), 2u);

  RolloutEngine f32(net, {.threads = 1,
                          .precision = core::Precision::kFloat32});
  const core::Rollout closed =
      f32.run_single(schedule, LaneKind::kCascade, {.capacity_ah = 0.0}, &plan);

  const std::vector<double> glued = testing::glued_open_loop_soc(
      f32, trace, horizon_s, k, schedule, plan);
  ASSERT_EQ(glued.size(), closed.soc.size());
  for (std::size_t s = 0; s < glued.size(); ++s) {
    EXPECT_EQ(closed.soc[s], glued[s]) << "f32 glued step " << s;
  }

  RolloutEngine f64(net, {.threads = 1});
  expect_soc_close(closed,
                   f64.run_single(schedule, LaneKind::kCascade, {.capacity_ah = 0.0}, &plan),
                   1e-4, "closed-loop f32 vs f64");
}

TEST(RolloutPrecision, ClosedLoopF32InvariantToThreadCount) {
  const core::TwoBranchNet net = testing::make_fitted_net(53);
  const std::vector<data::Trace> fleet = testing::synthetic_fleet(37, 61);
  const std::vector<data::WorkloadSchedule> schedules =
      data::build_workload_schedules(fleet, 30.0);
  std::vector<data::ReanchorPlan> plans;
  plans.reserve(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    plans.push_back(data::build_reanchor_plan(fleet[i], 30.0, 4 + i % 3));
  }
  std::vector<RolloutLane> lanes(schedules.size());
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    lanes[i].schedule = &schedules[i];
    if (i % 2 == 0) lanes[i].reanchor = &plans[i];
    if (i % 5 == 3) {
      lanes[i].kind = LaneKind::kPhysicsOnly;
      lanes[i].params.capacity_ah = 3.0;
    }
  }

  RolloutEngine single(net, {.threads = 1,
                             .precision = core::Precision::kFloat32});
  const std::vector<core::Rollout> base = single.run(lanes);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    RolloutEngine engine(net, {.threads = threads,
                               .precision = core::Precision::kFloat32});
    const std::vector<core::Rollout> multi = engine.run(lanes);
    ASSERT_EQ(multi.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      ASSERT_EQ(multi[i].soc.size(), base[i].soc.size());
      for (std::size_t s = 0; s < base[i].soc.size(); ++s) {
        EXPECT_EQ(multi[i].soc[s], base[i].soc[s])
            << "lane " << i << " step " << s << " threads " << threads;
      }
    }
  }
}

TEST(RolloutPrecision, ReanchorPlanAtStepZeroReproducesPlainSeedAtF32) {
  // Same padded Branch-1 panel for the seed and a step-0 re-anchor fed
  // the identical row: per-column independence makes them bitwise equal.
  const core::TwoBranchNet net = testing::make_fitted_net(59);
  const data::Trace trace = testing::synthetic_trace(90, 21);
  const data::WorkloadSchedule schedule =
      data::build_workload_schedule(trace, 30.0);
  data::ReanchorPlan plan;
  plan.steps = {0};
  plan.sensors = nn::Matrix(1, 3);
  plan.sensors(0, 0) = schedule.voltage0;
  plan.sensors(0, 1) = schedule.current0;
  plan.sensors(0, 2) = schedule.temp0;

  RolloutEngine engine(net, {.threads = 1,
                             .precision = core::Precision::kFloat32});
  const core::Rollout closed =
      engine.run_single(schedule, LaneKind::kCascade, {.capacity_ah = 0.0}, &plan);
  const core::Rollout open = engine.run_single(schedule);
  ASSERT_EQ(closed.soc.size(), open.soc.size());
  for (std::size_t s = 0; s < open.soc.size(); ++s) {
    EXPECT_EQ(closed.soc[s], open.soc[s]) << "step " << s;
  }
}

TEST(RolloutPrecision, ClampKnobAppliesAtF32) {
  const core::TwoBranchNet net = testing::make_fitted_net(43);
  const data::Trace trace = testing::synthetic_trace(80, 9);
  const data::WorkloadSchedule schedule =
      data::build_workload_schedule(trace, 30.0);

  RolloutEngine clamped(net, {.threads = 1,
                              .precision = core::Precision::kFloat32});
  for (const double s : clamped.run_single(schedule).soc) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
  RolloutEngine raw(net, {.threads = 1,
                          .clamp_soc = false,
                          .precision = core::Precision::kFloat32});
  bool out_of_range = false;
  for (const double s : raw.run_single(schedule).soc) {
    if (s < 0.0 || s > 1.0) out_of_range = true;
  }
  EXPECT_TRUE(out_of_range)
      << "fixture never left [0, 1]; clamp test is vacuous";
}

TEST(FleetPrecision, F32TracksF64AcrossTicks) {
  const core::TwoBranchNet net = testing::make_fitted_net(9);
  const std::size_t cells = 531;
  util::Rng rng(101);
  const nn::Matrix sensors = random_sensors(cells, rng);
  const nn::Matrix workload = random_workload(cells, rng);

  FleetEngine f64(net, cells, {.threads = 3});
  FleetEngine f32(net, cells,
                  {.threads = 3, .precision = core::Precision::kFloat32});
  f64.init_from_sensors(sensors);
  f32.init_from_sensors(sensors);
  for (int tick = 0; tick < 5; ++tick) {
    f64.step(workload);
    f32.step(workload);
  }
  for (std::size_t i = 0; i < cells; ++i) {
    EXPECT_NEAR(f32.soc()[i], f64.soc()[i], 1e-4) << "cell " << i;
  }
}

TEST(FleetPrecision, F32ResultsInvariantToThreadCount) {
  const core::TwoBranchNet net = testing::make_fitted_net(9);
  const std::size_t cells = 217;
  util::Rng rng(55);
  const nn::Matrix sensors = random_sensors(cells, rng);
  const nn::Matrix workload = random_workload(cells, rng);

  auto run = [&](std::size_t threads) {
    FleetEngine engine(net, cells,
                       {.threads = threads,
                        .precision = core::Precision::kFloat32});
    engine.init_from_sensors(sensors);
    for (int t = 0; t < 3; ++t) engine.step(workload);
    return std::vector<double>(engine.soc().begin(), engine.soc().end());
  };
  const std::vector<double> base = run(1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{5}}) {
    const std::vector<double> multi = run(threads);
    for (std::size_t i = 0; i < cells; ++i) {
      EXPECT_EQ(multi[i], base[i]) << "cell " << i << " threads " << threads;
    }
  }
}

TEST(FleetPrecision, SharedRowRunMatchesExplicitStepsAtF32) {
  const core::TwoBranchNet net = testing::make_fitted_net(9);
  const std::size_t cells = 203;
  FleetConfig config;
  config.threads = 3;
  config.precision = core::Precision::kFloat32;

  FleetEngine staged(net, cells, config);
  FleetEngine stepped(net, cells, config);
  std::vector<double> start(cells);
  util::Rng rng(5);
  for (auto& s : start) s = rng.uniform(0.1, 0.95);
  staged.set_soc(start);
  stepped.set_soc(start);

  staged.run(-2.5, 22.0, 45.0, 4);
  nn::Matrix workload(cells, 3);
  for (std::size_t i = 0; i < cells; ++i) {
    workload(i, 0) = -2.5;
    workload(i, 1) = 22.0;
    workload(i, 2) = 45.0;
  }
  for (int t = 0; t < 4; ++t) stepped.step(workload);
  for (std::size_t i = 0; i < cells; ++i) {
    EXPECT_EQ(staged.soc()[i], stepped.soc()[i]) << "cell " << i;
  }

  // Every third cell physics-only (Eq. 1 must read the f64 row, not the
  // f32 panel), and one workload override plus one sensor report
  // published identically to both engines mid-way.
  FleetEngine mixed_run(net, cells, config);
  FleetEngine mixed_step(net, cells, config);
  std::vector<CellMode> modes(cells, CellMode::kCascade);
  for (std::size_t i = 0; i < cells; i += 3) modes[i] = CellMode::kPhysicsOnly;
  for (FleetEngine* e : {&mixed_run, &mixed_step}) {
    e->set_soc(start);
    e->set_cell_modes(modes);
  }
  mixed_run.run(-2.5, 22.0, 45.0, 2);
  for (int t = 0; t < 2; ++t) mixed_step.step(workload);
  for (FleetEngine* e : {&mixed_run, &mixed_step}) {
    e->mailbox().publish_workload(7, {-1.0, 30.0, 90.0});
    e->mailbox().publish_sensors(9, {3.9, -1.5, 25.0});
  }
  mixed_run.run(-2.5, 22.0, 45.0, 2);
  for (int t = 0; t < 2; ++t) mixed_step.step(workload);
  EXPECT_EQ(mixed_run.ticks(), mixed_step.ticks());
  for (std::size_t i = 0; i < cells; ++i) {
    EXPECT_EQ(mixed_run.soc()[i], mixed_step.soc()[i]) << "cell " << i;
  }
}

}  // namespace
}  // namespace socpinn::serve
