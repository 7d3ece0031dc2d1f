/// \file socpinn_cli.cpp
/// Command-line front end for the library, so the full workflow runs
/// without writing C++: simulate datasets to CSV, train a model on CSV
/// traces, evaluate it at arbitrary horizons, and roll it over a planned
/// workload. Each command below is one shell line, wrapped to fit:
///
///   socpinn_cli --mode=simulate --dataset=sandia --out-dir=data/
///   socpinn_cli --mode=train --train-csv=data/train_0.csv,data/train_1.csv
///               --horizon=120 --physics=120,240,360 --model-out=model.txt
///   socpinn_cli --mode=eval --model=model.txt --test-csv=data/test_0.csv
///               --horizons=120,240,360
///   socpinn_cli --mode=rollout --model=model.txt --trace-csv=data/test_0.csv
///               --horizon=120 --out=rollout.csv
///
/// CSV trace format: header `time_s,voltage,current,temp_c,soc` (the soc
/// column holds ground truth for training/eval; for rollout only the first
/// row's sensors are consumed).

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/model_io.hpp"
#include "data/lg.hpp"
#include "data/preprocess.hpp"
#include "data/sandia.hpp"
#include "nn/metrics.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"

using namespace socpinn;

namespace {

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::vector<double> split_doubles(const std::string& csv) {
  std::vector<double> out;
  for (const std::string& item : split_list(csv)) {
    out.push_back(std::stod(item));
  }
  return out;
}

std::vector<data::Trace> load_traces(const std::string& paths_csv,
                                     double smooth_s) {
  std::vector<data::Trace> traces;
  for (const std::string& path : split_list(paths_csv)) {
    data::Trace trace = data::Trace::from_csv(path);
    traces.push_back(smooth_s > 0.0 ? data::smooth_trace(trace, smooth_s)
                                    : std::move(trace));
  }
  if (traces.empty()) {
    throw std::invalid_argument("no input traces given");
  }
  return traces;
}

int run_simulate(const util::ArgParser& args) {
  const std::string dataset = args.get("dataset", "sandia");
  const std::string out_dir = args.get("out-dir", ".");
  std::filesystem::create_directories(out_dir);
  auto dump = [&](const std::vector<data::Trace>& traces,
                  const std::string& prefix) {
    for (std::size_t i = 0; i < traces.size(); ++i) {
      const std::string path =
          out_dir + "/" + prefix + "_" + std::to_string(i) + ".csv";
      traces[i].to_csv(path);
      std::printf("wrote %s (%zu samples)\n", path.c_str(),
                  traces[i].size());
    }
  };
  if (dataset == "sandia") {
    const data::SandiaDataset ds = data::generate_sandia({});
    dump(ds.train_traces(), "train");
    dump(ds.test_traces(), "test");
  } else if (dataset == "lg") {
    const data::LgDataset ds = data::generate_lg({});
    dump(ds.train_traces(), "train");
    dump(ds.test_traces(), "test");
  } else {
    throw std::invalid_argument("unknown --dataset (use sandia|lg)");
  }
  return 0;
}

int run_train(const util::ArgParser& args) {
  core::ExperimentSetup setup;
  setup.train_traces = load_traces(args.get("train-csv", ""),
                                   args.get_double("smooth", 0.0));
  setup.native_horizon_s = args.get_double("horizon", 120.0);
  setup.cell.capacity_ah = args.get_double("capacity-ah", 3.0);
  setup.train.epochs =
      static_cast<std::size_t>(args.get_int("epochs", 200));
  setup.branch1_stride =
      static_cast<std::size_t>(args.get_int("stride", 1));
  setup.branch2_stride = setup.branch1_stride;

  core::VariantSpec variant{"No-PINN", core::VariantKind::kNoPinn, {}};
  if (args.has("physics")) {
    variant = {"PINN", core::VariantKind::kPinn,
               split_doubles(args.get("physics", ""))};
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  core::TrainedModel model = core::train_two_branch(setup, variant, seed);
  std::printf("trained %s (%zu params): branch1 loss %.4f, branch2 %.4f\n",
              variant.label.c_str(), model.net.num_params(),
              model.branch1_history.final_data_loss(),
              model.branch2_history.data_loss.empty()
                  ? 0.0
                  : model.branch2_history.final_data_loss());

  const std::string out = args.get("model-out", "model.txt");
  core::save_model(out, model.net);
  std::printf("model saved to %s\n", out.c_str());
  return 0;
}

int run_eval(const util::ArgParser& args) {
  core::TwoBranchNet net = core::load_model(args.get("model", "model.txt"));
  const std::vector<data::Trace> traces = load_traces(
      args.get("test-csv", ""), args.get_double("smooth", 0.0));
  const std::span<const data::Trace> span(traces);
  const auto stride = static_cast<std::size_t>(args.get_int("stride", 1));

  const auto b1 = data::build_branch1_data(span, stride);
  std::printf("SoC(t) estimation MAE: %.4f over %zu samples\n",
              nn::mae(net.estimate_batch(b1.x), b1.y), b1.size());
  for (double horizon : split_doubles(args.get("horizons", "120"))) {
    const auto eval = data::build_horizon_eval(span, horizon, stride);
    const core::HorizonPrediction pred = core::predict_cascade(net, eval);
    std::printf("SoC(t+%gs) prediction MAE: %.4f over %zu samples\n",
                horizon, nn::mae(pred.soc_pred, eval.target), eval.size());
  }
  return 0;
}

int run_rollout(const util::ArgParser& args) {
  core::TwoBranchNet net = core::load_model(args.get("model", "model.txt"));
  const std::vector<data::Trace> traces = load_traces(
      args.get("trace-csv", ""), args.get_double("smooth", 0.0));
  const double horizon = args.get_double("horizon", 120.0);
  const core::Rollout rollout =
      core::rollout_cascade(net, traces.front(), horizon);
  std::printf("rollout: %zu steps, final SoC %.4f (truth %.4f, |err| %.4f)\n",
              rollout.soc.size() - 1, rollout.soc.back(),
              rollout.truth.back(), rollout.final_abs_error());
  const std::string out = args.get("out", "rollout.csv");
  util::CsvDocument doc;
  doc.header = {"time_s", "soc_pred", "soc_true"};
  doc.columns = {rollout.times_s, rollout.soc, rollout.truth};
  util::write_csv(out, doc);
  std::printf("trajectory written to %s\n", out.c_str());
  return 0;
}

void print_usage() {
  std::printf(
      "usage: socpinn_cli --mode=simulate|train|eval|rollout [options]\n"
      "  simulate: --dataset=sandia|lg --out-dir=DIR\n"
      "  train:    --train-csv=a.csv,b.csv --horizon=S [--physics=S1,S2,..]\n"
      "            [--epochs=N --stride=N --smooth=S --capacity-ah=X\n"
      "             --seed=N --model-out=F]\n"
      "  eval:     --model=F --test-csv=a.csv,b.csv [--horizons=S1,S2,..]\n"
      "            [--stride=N --smooth=S]\n"
      "  rollout:  --model=F --trace-csv=a.csv --horizon=S [--out=F]\n");
}

}  // namespace

int main(int argc, char** argv) {
  util::set_log_level(util::LogLevel::kWarn);
  try {
    const util::ArgParser args(argc, argv);
    const std::string mode = args.get("mode", "");
    if (mode == "simulate") return run_simulate(args);
    if (mode == "train") return run_train(args);
    if (mode == "eval") return run_eval(args);
    if (mode == "rollout") return run_rollout(args);
    print_usage();
    return mode.empty() ? 1 : 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
