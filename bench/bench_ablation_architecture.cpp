/// \file bench_ablation_architecture.cpp
/// Architecture and pre-processing ablations on the LG-like dataset:
///
///  1. Hidden sizes around the paper's 16/32/16 inverted bottleneck
///     (Sec. III-A leaves NN architecture exploration to future work —
///     this harness provides the data point).
///  2. The input moving-average window. Sec. V-C attributes the advantage
///     over [7] to the 30 s smoothing of I/V/T; this sweep quantifies it.
///
/// Reports Branch-1 estimation MAE and cascade prediction MAE at 30 s.
///
/// Options: --epochs=N (default 150), --seed=N.

#include <cstdio>
#include <vector>

#include "core/experiment.hpp"
#include "data/lg.hpp"
#include "data/preprocess.hpp"
#include "nn/metrics.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace socpinn;

namespace {

struct Scores {
  double estimation_mae = 0.0;
  double prediction_mae = 0.0;
  std::size_t params = 0;
};

Scores run_config(const data::LgDataset& dataset,
                  const std::vector<std::size_t>& hidden, double smooth_s,
                  int epochs, std::uint64_t seed) {
  core::ExperimentSetup setup;
  for (const auto& run : dataset.train_runs) {
    setup.train_traces.push_back(
        smooth_s > 0.0 ? data::smooth_trace(run.trace, smooth_s)
                       : run.trace);
  }
  std::vector<data::Trace> test_traces;
  for (const auto& run : dataset.test_runs) {
    test_traces.push_back(smooth_s > 0.0
                              ? data::smooth_trace(run.trace, smooth_s)
                              : run.trace);
  }
  setup.native_horizon_s = 30.0;
  setup.cell.capacity_ah =
      battery::cell_params(battery::Chemistry::kLgHg2).capacity_ah;
  setup.train.epochs = static_cast<std::size_t>(epochs);
  setup.branch1_stride = 100;
  setup.branch2_stride = 100;

  const auto b1_train = data::build_branch1_data(
      std::span<const data::Trace>(setup.train_traces),
      setup.branch1_stride);
  const auto b2_train = data::build_branch2_data(
      std::span<const data::Trace>(setup.train_traces), 30.0,
      setup.branch2_stride);
  const auto b1_test = data::build_branch1_data(
      std::span<const data::Trace>(test_traces), 200);
  const auto eval = data::build_horizon_eval(
      std::span<const data::Trace>(test_traces), 30.0, 200);

  core::TwoBranchConfig net_config;
  net_config.hidden = hidden;
  core::TwoBranchNet net(net_config, seed);
  core::TrainConfig train = setup.train;
  train.seed = seed;
  (void)core::train_branch1(net, b1_train, train);
  const core::PhysicsConfig physics = core::PhysicsConfig::from_data(
      b2_train, setup.cell, {30.0, 50.0, 70.0});
  (void)core::train_branch2(net, b2_train, physics, train);

  Scores scores;
  scores.estimation_mae = nn::mae(net.estimate_batch(b1_test.x), b1_test.y);
  const core::HorizonPrediction pred = core::predict_cascade(net, eval);
  scores.prediction_mae = nn::mae(pred.soc_pred, eval.target);
  scores.params = net.num_params();
  return scores;
}

std::string hidden_label(const std::vector<std::size_t>& hidden) {
  std::string out;
  for (std::size_t i = 0; i < hidden.size(); ++i) {
    if (i) out += '/';
    out += std::to_string(hidden[i]);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::set_log_level(util::LogLevel::kWarn);
  const util::ArgParser args(argc, argv);
  const bool smoke = args.get_bool("smoke", false);  // CI smoke mode
  const int epochs = args.get_int("epochs", smoke ? 2 : 150);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  util::WallTimer timer;
  data::LgConfig data_config;
  data_config.n_mixed = 6;  // slightly reduced for ablation turnaround
  const data::LgDataset dataset = data::generate_lg(data_config);

  util::TextTable arch_table;
  arch_table.set_header(
      {"Hidden layers", "Params", "SoC(t) MAE", "SoC(t+30s) MAE"});
  const std::vector<std::vector<std::size_t>> architectures = {
      {8, 16, 8}, {16, 32, 16}, {32, 64, 32}, {16, 16, 16}};
  for (const auto& hidden : architectures) {
    const Scores s = run_config(dataset, hidden, 30.0, epochs, seed);
    arch_table.add_row({hidden_label(hidden) +
                            (hidden == architectures[1] ? " (paper)" : ""),
                        std::to_string(s.params),
                        util::format_double(s.estimation_mae, 4),
                        util::format_double(s.prediction_mae, 4)});
  }
  std::printf("%s\n", arch_table.str("Architecture ablation — LG").c_str());

  util::TextTable smooth_table;
  smooth_table.set_header(
      {"Moving average", "SoC(t) MAE", "SoC(t+30s) MAE"});
  for (double window_s : {0.0, 10.0, 30.0, 60.0}) {
    const Scores s =
        run_config(dataset, {16, 32, 16}, window_s, epochs, seed);
    const std::string label =
        window_s == 0.0 ? "none"
                        : util::format_double(window_s, 0) + " s" +
                              (window_s == 30.0 ? " (paper)" : "");
    smooth_table.add_row({label, util::format_double(s.estimation_mae, 4),
                          util::format_double(s.prediction_mae, 4)});
  }
  std::printf("%s\n",
              smooth_table.str("Input smoothing ablation — LG").c_str());
  std::printf(
      "Expectations: the 16/32/16 bottleneck is at the accuracy/size knee; "
      "30 s smoothing clearly beats raw inputs (the paper's explanation "
      "for outperforming [7]).\n");
  std::printf("elapsed: %.1f s\n", timer.seconds());
  return 0;
}
