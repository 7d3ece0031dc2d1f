#include "core/predictor.hpp"

#include <cmath>
#include <stdexcept>

#include "serve/rollout_engine.hpp"

namespace socpinn::core {

HorizonPrediction predict_cascade(const TwoBranchNet& net,
                                  const data::HorizonEvalData& eval) {
  const std::size_t n = eval.size();
  if (n == 0) throw std::invalid_argument("predict_cascade: empty eval set");

  InferenceWorkspace ws;
  // The Branch-1 result lives in ws only until the next forward, so it is
  // copied into the Branch-2 inputs before predict_batch reuses ws.
  const nn::Matrix& soc_est = net.estimate_batch(eval.sensors, ws);
  nn::Matrix b2_raw(n, 4);
  for (std::size_t r = 0; r < n; ++r) {
    b2_raw(r, 0) = soc_est(r, 0);
    b2_raw(r, 1) = eval.workload(r, 0);
    b2_raw(r, 2) = eval.workload(r, 1);
    b2_raw(r, 3) = eval.workload(r, 2);
  }
  const nn::Matrix& pred = net.predict_batch(b2_raw, ws);

  HorizonPrediction out;
  out.soc_now_est.reserve(n);
  out.soc_pred.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    out.soc_now_est.push_back(b2_raw(r, 0));
    out.soc_pred.push_back(pred(r, 0));
  }
  return out;
}

HorizonPrediction predict_physics_only(const TwoBranchNet& net,
                                       const data::HorizonEvalData& eval,
                                       const CellParams& params) {
  const std::size_t n = eval.size();
  if (n == 0) throw std::invalid_argument("predict_physics_only: empty set");
  validate(params, "predict_physics_only");

  InferenceWorkspace ws;
  const nn::Matrix& soc_est = net.estimate_batch(eval.sensors, ws);
  HorizonPrediction out;
  out.soc_now_est.reserve(n);
  out.soc_pred.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    out.soc_now_est.push_back(soc_est(r, 0));
    out.soc_pred.push_back(eq1_predict(soc_est(r, 0), eval.workload(r, 0),
                                       eval.workload(r, 2), params));
  }
  return out;
}

double Rollout::final_abs_error() const {
  // Both vectors, not just soc: a Rollout with predictions but no ground
  // truth used to dereference truth.back() on an empty vector (UB).
  if (soc.empty() || truth.empty()) {
    throw std::logic_error("Rollout::final_abs_error: empty trajectory");
  }
  return std::fabs(soc.back() - truth.back());
}

Rollout rollout_cascade(const TwoBranchNet& net, const data::Trace& trace,
                        double horizon_s) {
  const data::WorkloadSchedule schedule =
      data::build_workload_schedule(trace, horizon_s);
  serve::RolloutEngine engine(net, {.threads = 1});
  return engine.run_single(schedule);
}

Rollout rollout_physics_only(const TwoBranchNet& net, const data::Trace& trace,
                             double horizon_s, const CellParams& params) {
  const data::WorkloadSchedule schedule =
      data::build_workload_schedule(trace, horizon_s);
  serve::RolloutEngine engine(net, {.threads = 1});
  return engine.run_single(schedule, serve::LaneKind::kPhysicsOnly, params);
}

Rollout rollout_closed_loop(const TwoBranchNet& net, const data::Trace& trace,
                            double horizon_s,
                            const data::ReanchorPlan& plan) {
  const data::WorkloadSchedule schedule =
      data::build_workload_schedule(trace, horizon_s);
  serve::RolloutEngine engine(net, {.threads = 1});
  return engine.run_single(schedule, serve::LaneKind::kCascade,
                           {.capacity_ah = 0.0}, &plan);
}

}  // namespace socpinn::core
