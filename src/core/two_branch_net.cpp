#include "core/two_branch_net.hpp"

#include <stdexcept>

namespace socpinn::core {

namespace {

std::vector<std::size_t> branch_dims(std::size_t inputs,
                                     const std::vector<std::size_t>& hidden) {
  if (hidden.empty()) {
    throw std::invalid_argument("TwoBranchNet: need at least one hidden layer");
  }
  std::vector<std::size_t> dims;
  dims.reserve(hidden.size() + 2);
  dims.push_back(inputs);
  dims.insert(dims.end(), hidden.begin(), hidden.end());
  dims.push_back(1);
  return dims;
}

/// Standardizes a feature-major raw batch and runs `branch` on it: the
/// one forward under every inference call. The result (out_features x n)
/// lives in ws.layers.
const nn::Matrix& forward(const nn::Mlp& branch,
                          const nn::StandardScaler& scaler,
                          const nn::Matrix& raw_columns,
                          InferenceWorkspace& ws) {
  scaler.transform_columns_into(raw_columns, ws.scaled);
  return branch.infer_columns(ws.scaled, ws.layers);
}

/// Hands a forward's result back row-major (n x out_features) in
/// ws.input, whose raw batch the forward has already consumed.
const nn::Matrix& rows_result(const nn::Matrix& columns,
                              InferenceWorkspace& ws) {
  nn::transpose_into(columns, ws.input);
  return ws.input;
}

}  // namespace

TwoBranchNet::TwoBranchNet(TwoBranchConfig config, std::uint64_t seed)
    : config_(std::move(config)) {
  util::Rng rng(seed);
  util::Rng rng1 = rng.split();
  util::Rng rng2 = rng.split();
  branch1_ = nn::Mlp::make(branch_dims(3, config_.hidden), rng1,
                           config_.activation);
  branch2_ = nn::Mlp::make(branch_dims(4, config_.hidden), rng2,
                           config_.activation);
}

const nn::Matrix& TwoBranchNet::estimate_batch(const nn::Matrix& sensors_raw,
                                               InferenceWorkspace& ws) const {
  nn::transpose_into(sensors_raw, ws.input);
  return rows_result(forward(branch1_, scaler1_, ws.input, ws), ws);
}

const nn::Matrix& TwoBranchNet::predict_batch(const nn::Matrix& branch2_raw,
                                              InferenceWorkspace& ws) const {
  nn::transpose_into(branch2_raw, ws.input);
  return rows_result(forward(branch2_, scaler2_, ws.input, ws), ws);
}

const nn::Matrix& TwoBranchNet::predict_batch_columns(
    const nn::Matrix& branch2_raw_columns, InferenceWorkspace& ws) const {
  return forward(branch2_, scaler2_, branch2_raw_columns, ws);
}

const nn::Matrix& TwoBranchNet::cascade_batch(const nn::Matrix& sensors_raw,
                                              const nn::Matrix& workload_raw,
                                              InferenceWorkspace& ws) const {
  const std::size_t n = sensors_raw.rows();
  if (workload_raw.rows() != n || workload_raw.cols() != 3) {
    throw std::invalid_argument("cascade_batch: workload must be n x 3");
  }
  nn::transpose_into(sensors_raw, ws.input);
  const nn::Matrix& soc_now = forward(branch1_, scaler1_, ws.input, ws);
  // The sensors are consumed once standardized: ws.input now stages the
  // Branch-2 panel, the estimates read straight from Branch 1's output.
  ws.input.resize(4, n);
  for (std::size_t j = 0; j < n; ++j) {
    ws.input(0, j) = soc_now(0, j);
    ws.input(1, j) = workload_raw(j, 0);
    ws.input(2, j) = workload_raw(j, 1);
    ws.input(3, j) = workload_raw(j, 2);
  }
  return rows_result(forward(branch2_, scaler2_, ws.input, ws), ws);
}

double TwoBranchNet::estimate_soc(double voltage, double current,
                                  double temp_c, InferenceWorkspace& ws) const {
  ws.input.resize(3, 1);
  ws.input(0, 0) = voltage;
  ws.input(1, 0) = current;
  ws.input(2, 0) = temp_c;
  return forward(branch1_, scaler1_, ws.input, ws)(0, 0);
}

double TwoBranchNet::predict_soc(double soc_now, double avg_current,
                                 double avg_temp_c, double horizon_s,
                                 InferenceWorkspace& ws) const {
  ws.input.resize(4, 1);
  ws.input(0, 0) = soc_now;
  ws.input(1, 0) = avg_current;
  ws.input(2, 0) = avg_temp_c;
  ws.input(3, 0) = horizon_s;
  return forward(branch2_, scaler2_, ws.input, ws)(0, 0);
}

double TwoBranchNet::estimate_soc(double voltage, double current,
                                  double temp_c) {
  return estimate_soc(voltage, current, temp_c, ws_);
}

double TwoBranchNet::predict_soc(double soc_now, double avg_current,
                                 double avg_temp_c, double horizon_s) {
  return predict_soc(soc_now, avg_current, avg_temp_c, horizon_s, ws_);
}

nn::Matrix TwoBranchNet::estimate_batch(const nn::Matrix& sensors_raw) {
  return estimate_batch(sensors_raw, ws_);
}

nn::Matrix TwoBranchNet::predict_batch(const nn::Matrix& branch2_raw) {
  return predict_batch(branch2_raw, ws_);
}

std::size_t TwoBranchNet::num_params() {
  return branch1_.num_params() + branch2_.num_params();
}

nn::ModelCost TwoBranchNet::cost() {
  const nn::ModelCost c1 = nn::mlp_cost(branch1_);
  const nn::ModelCost c2 = nn::mlp_cost(branch2_);
  nn::ModelCost total;
  total.params = c1.params + c2.params;
  total.bytes_f32 = c1.bytes_f32 + c2.bytes_f32;
  total.macs = c1.macs + c2.macs;
  return total;
}

}  // namespace socpinn::core
