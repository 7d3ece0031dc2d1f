#include "core/soh_ensemble.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "data/protocol.hpp"
#include "nn/metrics.hpp"

namespace socpinn::core {
namespace {

/// Records one discharge/charge cycle of a cell aged to `soh`.
data::Trace aged_cycle_trace(double soh, std::uint64_t seed) {
  const battery::CellParams params = aged_cell_params(
      battery::cell_params(battery::Chemistry::kNmc), soh);
  battery::Cell cell(params, 1.0, 25.0, battery::SensorNoise::none(),
                     util::Rng(seed));
  data::ProtocolRunner runner(120.0);
  return runner.run(cell, {data::cc_discharge(params, 1.0),
                           data::rest(600.0), data::cc_charge(params, 0.5),
                           data::cv_hold(params)});
}

ExperimentSetup setup_for_soh(double soh) {
  ExperimentSetup setup;
  setup.train_traces = {aged_cycle_trace(soh, 1), aged_cycle_trace(soh, 2)};
  setup.native_horizon_s = 120.0;
  setup.cell.capacity_ah =
      battery::cell_params(battery::Chemistry::kNmc).capacity_ah;
  setup.train.epochs = 50;
  return setup;
}

TEST(AgedCellParams, FadeAndResistanceGrowth) {
  const battery::CellParams fresh =
      battery::cell_params(battery::Chemistry::kNmc);
  const battery::CellParams aged = aged_cell_params(fresh, 0.8);
  EXPECT_NEAR(aged.true_capacity_scale, fresh.true_capacity_scale * 0.8,
              1e-12);
  EXPECT_NEAR(aged.r0_ohm, fresh.r0_ohm * 1.4, 1e-12);
  EXPECT_NEAR(aged.r1_ohm, fresh.r1_ohm * 1.4, 1e-12);
  // Nameplate untouched — that is the point.
  EXPECT_DOUBLE_EQ(aged.capacity_ah, fresh.capacity_ah);
}

TEST(AgedCellParams, Validates) {
  const battery::CellParams fresh =
      battery::cell_params(battery::Chemistry::kNmc);
  EXPECT_THROW((void)aged_cell_params(fresh, 0.4), std::invalid_argument);
  EXPECT_THROW((void)aged_cell_params(fresh, 1.1), std::invalid_argument);
}

TEST(AgedCellParams, RejectsNonFiniteSohBeforeComputing) {
  // Regression: NaN makes BOTH halves of `soh <= 0.5 || soh > 1.0` false,
  // so a NaN SoH used to sail through validation and poison every derived
  // parameter. The check must reject non-finite values explicitly.
  const battery::CellParams fresh =
      battery::cell_params(battery::Chemistry::kNmc);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)aged_cell_params(fresh, bad), std::invalid_argument)
        << bad;
  }
}

TEST(AgedCellParams, MonotoneInSoh) {
  // Ageing is monotone: capacity strictly fades and resistances strictly
  // grow as SoH drops, across the whole accepted range.
  const battery::CellParams fresh =
      battery::cell_params(battery::Chemistry::kNmc);
  double prev_scale = fresh.true_capacity_scale + 1.0;
  double prev_r0 = 0.0;
  double prev_r1 = 0.0;
  // (0.6 is the floor here: below that the scaled true_capacity_scale
  // would trip the battery::CellParams plausibility check.)
  for (const double soh : {1.0, 0.95, 0.9, 0.8, 0.7, 0.6}) {
    const battery::CellParams aged = aged_cell_params(fresh, soh);
    EXPECT_LT(aged.true_capacity_scale, prev_scale) << soh;
    EXPECT_GT(aged.r0_ohm, prev_r0) << soh;
    EXPECT_GT(aged.r1_ohm, prev_r1) << soh;
    prev_scale = aged.true_capacity_scale;
    prev_r0 = aged.r0_ohm;
    prev_r1 = aged.r1_ohm;
  }
}

TEST(AgedCellParams, SohOneIsTheFreshCellBitwise) {
  const battery::CellParams fresh =
      battery::cell_params(battery::Chemistry::kNmc);
  const battery::CellParams aged = aged_cell_params(fresh, 1.0);
  EXPECT_EQ(aged.true_capacity_scale, fresh.true_capacity_scale);
  EXPECT_EQ(aged.r0_ohm, fresh.r0_ohm);
  EXPECT_EQ(aged.r1_ohm, fresh.r1_ohm);
  EXPECT_EQ(aged.capacity_ah, fresh.capacity_ah);
}

TEST(SohEstimator, RejectsNonFiniteAndNonPositiveRatedCapacity) {
  // Same NaN-passes-`<= 0` bug class as aged_cell_params: the capacity
  // check must run BEFORE any integration and reject every bad value.
  const battery::CellParams params =
      battery::cell_params(battery::Chemistry::kNmc);
  battery::Cell cell(params, 1.0, 25.0);
  data::ProtocolRunner runner(60.0);
  const data::Trace discharge =
      runner.run(cell, {data::cc_discharge(params, 1.0)});
  for (const double bad : {0.0, -3.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)estimate_soh_from_discharge(discharge, bad),
                 std::invalid_argument)
        << bad;
  }
}

TEST(SohEstimator, RecoversTrueSohFromFullDischarge) {
  for (double soh : {1.0, 0.9, 0.8}) {
    const battery::CellParams params = aged_cell_params(
        battery::cell_params(battery::Chemistry::kNmc), soh);
    battery::Cell cell(params, 1.0, 25.0);
    data::ProtocolRunner runner(60.0);
    const data::Trace discharge =
        runner.run(cell, {data::cc_discharge(params, 1.0)});
    const double estimated = estimate_soh_from_discharge(
        discharge, params.capacity_ah);
    // The estimator measures true_capacity_scale * soh relative to the
    // nameplate, so compare against that product.
    EXPECT_NEAR(estimated, params.true_capacity_scale, 0.05) << soh;
  }
}

TEST(SohEstimator, RejectsNonFiniteSamples) {
  // A NaN timestamp made the integrated throughput NaN, and util::clamp
  // passed it through as the SoH estimate.
  const battery::CellParams params =
      battery::cell_params(battery::Chemistry::kNmc);
  battery::Cell cell(params, 1.0, 25.0);
  data::ProtocolRunner runner(60.0);
  const data::Trace clean =
      runner.run(cell, {data::cc_discharge(params, 1.0)});
  ASSERT_NO_THROW((void)estimate_soh_from_discharge(clean, params.capacity_ah));
  std::vector<data::TracePoint> points(clean.begin(), clean.end());
  points[points.size() / 2].time_s = std::numeric_limits<double>::quiet_NaN();
  const data::Trace corrupt(std::move(points));
  EXPECT_THROW((void)estimate_soh_from_discharge(corrupt, params.capacity_ah),
               std::invalid_argument);
}

TEST(SohEstimator, RejectsPartialDischarge) {
  const battery::CellParams params =
      battery::cell_params(battery::Chemistry::kNmc);
  battery::Cell cell(params, 1.0, 25.0);
  data::ProtocolRunner runner(60.0);
  data::Trace trace = runner.run(cell, {data::cc_discharge(params, 1.0)});
  const data::Trace partial = trace.slice(0, trace.size() / 6);
  EXPECT_THROW((void)estimate_soh_from_discharge(partial, params.capacity_ah),
               std::invalid_argument);
}

TEST(SohEnsemble, RoutesToNearestLevel) {
  SohEnsembleConfig config;
  config.soh_levels = {1.0, 0.9, 0.8};
  config.variant = {"No-PINN", VariantKind::kNoPinn, {}};
  SohEnsemble ensemble(config, setup_for_soh);
  EXPECT_EQ(ensemble.size(), 3u);
  EXPECT_EQ(ensemble.select_index(0.99), 0u);
  EXPECT_EQ(ensemble.select_index(0.91), 1u);
  EXPECT_EQ(ensemble.select_index(0.84), 2u);
  EXPECT_EQ(ensemble.select_index(0.6), 2u);
  // Every distance to NaN compares false, and the infinities tie at every
  // level: all three used to route to member 0.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)ensemble.select_index(bad), std::invalid_argument)
        << bad;
  }
}

TEST(SohEnsemble, AgedMemberBeatsFreshModelOnAgedCell) {
  // The paper's motivation for the ensemble: a model trained on fresh
  // cells mis-predicts an aged cell; the SoH-matched member does better.
  SohEnsembleConfig config;
  config.soh_levels = {1.0, 0.8};
  config.variant = {"No-PINN", VariantKind::kNoPinn, {}};
  config.seed = 3;
  SohEnsemble ensemble(config, setup_for_soh);

  const data::Trace aged_test = aged_cycle_trace(0.8, 77);
  const auto eval = data::build_horizon_eval(aged_test, 120.0);

  const HorizonPrediction fresh_pred =
      predict_cascade(ensemble.select(1.0), eval);
  const HorizonPrediction aged_pred =
      predict_cascade(ensemble.select(0.8), eval);
  const double fresh_mae = nn::mae(fresh_pred.soc_pred, eval.target);
  const double aged_mae = nn::mae(aged_pred.soc_pred, eval.target);
  EXPECT_LT(aged_mae, fresh_mae);
}

TEST(SohEnsemble, PredictSocFullPath) {
  SohEnsembleConfig config;
  config.soh_levels = {1.0};
  config.variant = {"No-PINN", VariantKind::kNoPinn, {}};
  SohEnsemble ensemble(config, setup_for_soh);
  // Query with an in-distribution sensor reading taken from a real trace
  // point mid-discharge.
  const data::Trace trace = aged_cycle_trace(1.0, 5);
  const data::TracePoint& point = trace[trace.size() / 8];
  const double pred =
      ensemble.predict_soc(1.0, point.voltage, point.current, point.temp_c,
                           point.current, point.temp_c, 120.0);
  EXPECT_NEAR(pred, point.soc, 0.25);
}

TEST(SohEnsemble, ValidatesLevels) {
  SohEnsembleConfig config;
  config.soh_levels = {};
  EXPECT_THROW(SohEnsemble(config, setup_for_soh), std::invalid_argument);
  config.soh_levels = {0.3};
  EXPECT_THROW(SohEnsemble(config, setup_for_soh), std::invalid_argument);
}

}  // namespace
}  // namespace socpinn::core
