#include "serve/fleet_engine.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "nn/panel_dispatch.hpp"
#include "serve/rollout_engine.hpp"
#include "support/fitted_net.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace socpinn::serve {
namespace {

using testing::random_sensors;
using testing::random_workload;

std::vector<double> run_fleet(const core::TwoBranchNet& net,
                              std::size_t threads, std::size_t cells,
                              std::size_t ticks) {
  util::Rng rng(101);
  const nn::Matrix sensors = random_sensors(cells, rng);
  const nn::Matrix workload = random_workload(cells, rng);
  FleetConfig config;
  config.threads = threads;
  FleetEngine engine(net, cells, config);
  engine.init_from_sensors(sensors);
  for (std::size_t t = 0; t < ticks; ++t) engine.step(workload);
  return {engine.soc().begin(), engine.soc().end()};
}

TEST(FleetEngine, ResultsInvariantToThreadCount) {
  const core::TwoBranchNet net = testing::make_fitted_net(9);
  const std::size_t cells = 531;  // deliberately not a multiple of any count
  const std::vector<double> single = run_fleet(net, 1, cells, 5);

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (const std::size_t threads :
       {std::size_t{2}, std::size_t{4}, std::size_t{hw}}) {
    const std::vector<double> multi = run_fleet(net, threads, cells, 5);
    ASSERT_EQ(multi.size(), single.size());
    for (std::size_t i = 0; i < cells; ++i) {
      // Bitwise identity, not approximate: sharding a row-independent
      // batch must not change a single ulp.
      EXPECT_EQ(multi[i], single[i]) << "cell " << i << " threads " << threads;
    }
  }
}

TEST(FleetEngine, SimdIsaReportsTheProcessWideDispatch) {
  // The engines' config surface mirrors the dispatcher: whichever ISA this
  // process resolved (auto-detected or SOCPINN_FORCE_ISA-pinned, so this
  // holds in the forced-ISA CI jobs too), both engines report it.
  const core::TwoBranchNet net = testing::make_fitted_net(9);
  const char* expected = nn::simd::isa_name(nn::simd::active_isa());

  FleetEngine fleet(net, 8, {});
  EXPECT_STREQ(fleet.simd_isa(), expected);

  RolloutEngine rollout(net, {});
  EXPECT_STREQ(rollout.simd_isa(), expected);
}

TEST(FleetEngine, MatchesScalarCascadePerCell) {
  const core::TwoBranchNet net = testing::make_fitted_net(9);
  const std::size_t cells = 97;
  util::Rng rng(101);
  const nn::Matrix sensors = random_sensors(cells, rng);
  const nn::Matrix workload = random_workload(cells, rng);
  // Every fifth cell advances with Eq. 1 from its own params instead of
  // Branch 2, so physics-only cells sit in both tiles of a 1-thread shard.
  std::vector<CellMode> modes(cells, CellMode::kCascade);
  std::vector<core::CellParams> params(cells);
  for (std::size_t i = 0; i < cells; i += 5) {
    modes[i] = CellMode::kPhysicsOnly;
    params[i] = {.capacity_ah = 1.5 + 0.01 * static_cast<double>(i),
                 .coulombic_eff = 0.97};
  }

  // At 3 threads every shard fits one column tile; at 1 thread the shard
  // is a full 64-column tile plus a 33-cell tail. This net clamps every
  // cell's Branch-2 output to 0 by the second tick, so only the unclamped
  // pass tells one column's result from another's.
  for (const bool clamp : {true, false}) {
    for (const std::size_t threads : {std::size_t{3}, std::size_t{1}}) {
      SCOPED_TRACE(::testing::Message()
                   << threads << " threads, clamp " << clamp);
      FleetConfig config;
      config.threads = threads;
      config.clamp_soc = clamp;
      FleetEngine engine(net, cells, config);
      engine.set_cell_modes(modes);
      engine.set_cell_params(params);
      engine.init_from_sensors(sensors);
      engine.step(workload);
      engine.step(workload);

      const auto stored = [&](double raw) {
        return clamp ? util::clamp01(raw) : raw;
      };
      core::InferenceWorkspace ws;
      for (std::size_t i = 0; i < cells; ++i) {
        double soc = stored(net.estimate_soc(sensors(i, 0), sensors(i, 1),
                                             sensors(i, 2), ws));
        for (int tick = 0; tick < 2; ++tick) {
          soc = stored(modes[i] == CellMode::kPhysicsOnly
                           ? core::eq1_predict(soc, workload(i, 0),
                                               workload(i, 2), params[i])
                           : net.predict_soc(soc, workload(i, 0),
                                             workload(i, 1), workload(i, 2),
                                             ws));
        }
        EXPECT_DOUBLE_EQ(engine.soc()[i], soc) << "cell " << i;
      }
    }
  }
}

TEST(FleetEngine, SetSocAndRunAdvanceEveryCell) {
  const core::TwoBranchNet net = testing::make_fitted_net(9);
  FleetConfig config;
  config.threads = 2;
  FleetEngine engine(net, 10, config);
  const std::vector<double> start(10, 0.9);
  engine.set_soc(start);
  engine.run(-2.0, 25.0, 60.0, 3);
  EXPECT_EQ(engine.ticks(), 3u);

  core::InferenceWorkspace ws;
  double expect = 0.9;
  for (int tick = 0; tick < 3; ++tick) {
    expect = util::clamp01(net.predict_soc(expect, -2.0, 25.0, 60.0, ws));
  }
  for (const double soc : engine.soc()) EXPECT_DOUBLE_EQ(soc, expect);
}

TEST(FleetEngine, ValidatesShapes) {
  const core::TwoBranchNet net = testing::make_fitted_net(9);
  EXPECT_THROW(FleetEngine(net, 0), std::invalid_argument);

  FleetEngine engine(net, 8, {.threads = 1});
  EXPECT_THROW(engine.init_from_sensors(nn::Matrix(7, 3)),
               std::invalid_argument);
  EXPECT_THROW(engine.init_from_sensors(nn::Matrix(8, 2)),
               std::invalid_argument);
  EXPECT_THROW(engine.step(nn::Matrix(8, 4)), std::invalid_argument);
  const std::vector<double> too_small(3, 0.5);
  EXPECT_THROW(engine.set_soc(too_small), std::invalid_argument);

  // Non-finite workload rows are rejected whole at every synchronous tick
  // entry point, before any state changes — cascade and physics-only
  // cells alike (ReLU would otherwise turn a NaN row into a finite,
  // state-independent SoC, and Eq. 1 into NaN for good).
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  util::Rng rng(3);
  engine.init_from_sensors(random_sensors(8, rng));
  engine.set_cell_mode(5, CellMode::kPhysicsOnly);
  const std::vector<double> before(engine.soc().begin(), engine.soc().end());
  nn::Matrix bad = random_workload(8, rng);
  bad(3, 0) = kNaN;
  try {
    engine.step(bad);
    FAIL() << "expected the non-finite row to be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("row 3"), std::string::npos)
        << e.what();
  }
  bad(3, 0) = -1.0;
  bad(5, 2) = kInf;
  EXPECT_THROW(engine.step(bad), std::invalid_argument);
  EXPECT_THROW(engine.run(kNaN, 25.0, 60.0, 2), std::invalid_argument);
  EXPECT_THROW(engine.run(-2.0, 25.0, -kInf, 2), std::invalid_argument);
  data::WorkloadSchedule schedule;
  schedule.workload = nn::Matrix(3, 3);
  for (auto& v : schedule.workload.data()) v = 1.0;
  schedule.workload(2, 1) = kNaN;  // only the last window is bad
  EXPECT_THROW(engine.run(schedule), std::invalid_argument);
  schedule.workload = nn::Matrix(3, 2);
  EXPECT_THROW(engine.run(schedule), std::invalid_argument);
  // Seeded SoC values too: clamping maps NaN to NaN, and a NaN SoC would
  // read back as a finite, wrong value after the next cascade tick.
  std::vector<double> bad_soc(8, 0.5);
  bad_soc[6] = kNaN;
  try {
    engine.set_soc(bad_soc);
    FAIL() << "expected the non-finite SoC to be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cell 6"), std::string::npos)
        << e.what();
  }
  bad_soc[6] = 0.5;
  bad_soc[0] = kInf;
  EXPECT_THROW(engine.set_soc(bad_soc), std::invalid_argument);
  bad_soc[0] = -kInf;
  EXPECT_THROW(engine.set_soc(bad_soc), std::invalid_argument);
  EXPECT_EQ(engine.ticks(), 0u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(engine.soc()[i], before[i]) << "cell " << i;
  }
  engine.step(random_workload(8, rng));
  EXPECT_EQ(engine.ticks(), 1u);
}

TEST(FleetEngine, RunMatchesExplicitSteps) {
  // run() applies one shared row to every cell; it must be bitwise
  // identical to building the full workload matrix and calling step() per
  // tick — also with physics-only cells and with mailbox messages drained
  // between ticks.
  const core::TwoBranchNet net = testing::make_fitted_net(9);
  const std::size_t cells = 203;
  FleetConfig config;
  config.threads = 3;

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

  EXPECT_EQ(staged.ticks(), stepped.ticks());
  for (std::size_t i = 0; i < cells; ++i) {
    EXPECT_EQ(staged.soc()[i], stepped.soc()[i]) << "cell " << i;
  }

  // Every third cell physics-only, and one workload override plus one
  // sensor report published identically to both engines mid-way.
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

TEST(FleetEngine, ScheduleRunAppliesEveryWindow) {
  // The schedule-driven seam shared with Fig. 5 evaluation: tick w applies
  // schedule row w to every cell, equivalent to a RolloutEngine lane
  // seeded with the same SoC.
  const core::TwoBranchNet net = testing::make_fitted_net(9);
  const data::Trace trace = testing::synthetic_trace(61, 77);
  const data::WorkloadSchedule schedule =
      data::build_workload_schedule(trace, 60.0);
  ASSERT_GT(schedule.num_steps(), 3u);

  FleetConfig config;
  config.threads = 2;
  FleetEngine engine(net, 12, config);
  const std::vector<double> start(12, 0.9);
  engine.set_soc(start);
  engine.run(schedule);
  EXPECT_EQ(engine.ticks(), schedule.num_steps());

  core::InferenceWorkspace ws;
  double expect = 0.9;
  for (std::size_t w = 0; w < schedule.num_steps(); ++w) {
    expect = util::clamp01(
        net.predict_soc(expect, schedule.workload(w, 0),
                        schedule.workload(w, 1), schedule.workload(w, 2), ws));
  }
  for (const double soc : engine.soc()) EXPECT_EQ(soc, expect);
}

TEST(FleetEngine, SetSocHonorsClampKnobLikeInitFromSensors) {
  // Regression: set_soc used to ignore clamp_soc, so the two seeding paths
  // disagreed — init_from_sensors clamped while direct seeding stored
  // arbitrary values. The documented contract is ONE clamping knob on
  // every seeding/serving path.
  const core::TwoBranchNet net = testing::make_fitted_net(9);
  const std::vector<double> wild = {1.7, -0.3, 0.5, 2e6};

  FleetEngine clamped(net, 4, {.threads = 1});
  clamped.set_soc(wild);
  EXPECT_DOUBLE_EQ(clamped.soc()[0], 1.0);
  EXPECT_DOUBLE_EQ(clamped.soc()[1], 0.0);
  EXPECT_DOUBLE_EQ(clamped.soc()[2], 0.5);
  EXPECT_DOUBLE_EQ(clamped.soc()[3], 1.0);

  FleetEngine raw(net, 4, {.threads = 1, .clamp_soc = false});
  raw.set_soc(wild);
  for (std::size_t i = 0; i < wild.size(); ++i) {
    EXPECT_DOUBLE_EQ(raw.soc()[i], wild[i]) << "cell " << i;
  }

  // And the other seeding path agrees: a Branch-1 estimate outside [0, 1]
  // is clamped under the same knob. The fitted fixture wanders out of
  // range on extreme sensor inputs, which is what makes this comparison
  // non-vacuous.
  nn::Matrix sensors(4, 3);
  for (std::size_t r = 0; r < 4; ++r) {
    sensors(r, 0) = 10.0;   // far outside the scaler's training range
    sensors(r, 1) = -50.0;
    sensors(r, 2) = 90.0;
  }
  FleetEngine est_clamped(net, 4, {.threads = 1});
  FleetEngine est_raw(net, 4, {.threads = 1, .clamp_soc = false});
  est_clamped.init_from_sensors(sensors);
  est_raw.init_from_sensors(sensors);
  bool estimate_left_range = false;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GE(est_clamped.soc()[i], 0.0);
    EXPECT_LE(est_clamped.soc()[i], 1.0);
    if (est_raw.soc()[i] < 0.0 || est_raw.soc()[i] > 1.0) {
      estimate_left_range = true;
    }
    EXPECT_DOUBLE_EQ(est_clamped.soc()[i],
                     util::clamp01(est_raw.soc()[i]))
        << "cell " << i;
  }
  EXPECT_TRUE(estimate_left_range)
      << "fixture estimate never left [0, 1]; clamp comparison is vacuous";
}

TEST(FleetEngine, ClampCanBeDisabled) {
  const core::TwoBranchNet net = testing::make_fitted_net(9);
  FleetConfig config;
  config.threads = 1;
  config.clamp_soc = false;
  FleetEngine engine(net, 4, config);
  const std::vector<double> start(4, 0.5);
  engine.set_soc(start);
  nn::Matrix workload(4, 3);
  for (std::size_t r = 0; r < 4; ++r) {
    workload(r, 0) = -2.0;
    workload(r, 1) = 25.0;
    workload(r, 2) = 60.0;
  }
  engine.step(workload);
  core::InferenceWorkspace ws;
  const double raw = net.predict_soc(0.5, -2.0, 25.0, 60.0, ws);
  for (const double soc : engine.soc()) EXPECT_DOUBLE_EQ(soc, raw);
}

}  // namespace
}  // namespace socpinn::serve
