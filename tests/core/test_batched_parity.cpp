/// Parity of the batched workspace inference path against the scalar
/// wrappers and the legacy allocating forward: the refactor's correctness
/// contract is that all of them produce the same numbers to 1e-12 (in
/// practice bitwise) on arbitrary inputs.

#include <gtest/gtest.h>

#include <vector>

#include "core/two_branch_net.hpp"
#include "support/fitted_net.hpp"
#include "util/rng.hpp"

namespace socpinn::core {
namespace {

using testing::make_fitted_net;
using testing::random_branch2;
using testing::random_sensors;

constexpr double kTol = 1e-12;

TEST(BatchedParity, EstimateBatchMatchesScalarLoop) {
  TwoBranchNet net = make_fitted_net(7);
  util::Rng rng(11);
  const nn::Matrix sensors = random_sensors(257, rng);

  InferenceWorkspace ws;
  const nn::Matrix& batch = net.estimate_batch(sensors, ws);
  ASSERT_EQ(batch.rows(), sensors.rows());
  ASSERT_EQ(batch.cols(), 1u);

  InferenceWorkspace scalar_ws;
  for (std::size_t r = 0; r < sensors.rows(); ++r) {
    const double scalar = net.estimate_soc(sensors(r, 0), sensors(r, 1),
                                           sensors(r, 2), scalar_ws);
    EXPECT_NEAR(batch(r, 0), scalar, kTol) << "row " << r;
  }
}

TEST(BatchedParity, PredictBatchMatchesScalarLoop) {
  TwoBranchNet net = make_fitted_net(7);
  util::Rng rng(13);
  const nn::Matrix inputs = random_branch2(256, rng);

  InferenceWorkspace ws;
  const nn::Matrix& batch = net.predict_batch(inputs, ws);

  InferenceWorkspace scalar_ws;
  for (std::size_t r = 0; r < inputs.rows(); ++r) {
    const double scalar =
        net.predict_soc(inputs(r, 0), inputs(r, 1), inputs(r, 2),
                        inputs(r, 3), scalar_ws);
    EXPECT_NEAR(batch(r, 0), scalar, kTol) << "row " << r;
  }
}

TEST(BatchedParity, PredictBatchColumnsMatchesRowMajorBitwise) {
  // The feature-major seam of the per-step rollout/serving hot loops:
  // staging the batch transposed must not change a single ulp, at batch
  // sizes on both sides of the engines' pad width and the kernel's tile.
  TwoBranchNet net = make_fitted_net(7);
  util::Rng rng(19);
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{5}, std::size_t{31}, std::size_t{32},
        std::size_t{257}}) {
    const nn::Matrix inputs = random_branch2(n, rng);
    nn::Matrix columns(4, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < 4; ++c) columns(c, r) = inputs(r, c);
    }
    InferenceWorkspace row_ws;
    const nn::Matrix& rows_out = net.predict_batch(inputs, row_ws);
    InferenceWorkspace col_ws;
    const nn::Matrix& cols_out = net.predict_batch_columns(columns, col_ws);
    ASSERT_EQ(cols_out.rows(), 1u);
    ASSERT_EQ(cols_out.cols(), n);
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_EQ(cols_out(0, r), rows_out(r, 0)) << "n " << n << " row " << r;
    }
  }
}

TEST(BatchedParity, CascadeBatchMatchesScalarCascade) {
  TwoBranchNet net = make_fitted_net(7);
  util::Rng rng(17);
  const std::size_t n = 128;
  const nn::Matrix sensors = random_sensors(n, rng);
  nn::Matrix workload(n, 3);
  for (std::size_t r = 0; r < n; ++r) {
    workload(r, 0) = rng.uniform(-6.0, 3.0);
    workload(r, 1) = rng.uniform(-5.0, 45.0);
    workload(r, 2) = rng.uniform(10.0, 600.0);
  }

  InferenceWorkspace ws;
  const nn::Matrix& batch = net.cascade_batch(sensors, workload, ws);

  InferenceWorkspace scalar_ws;
  for (std::size_t r = 0; r < n; ++r) {
    const double soc_now = net.estimate_soc(sensors(r, 0), sensors(r, 1),
                                            sensors(r, 2), scalar_ws);
    const double scalar =
        net.predict_soc(soc_now, workload(r, 0), workload(r, 1),
                        workload(r, 2), scalar_ws);
    EXPECT_NEAR(batch(r, 0), scalar, kTol) << "row " << r;
  }
}

TEST(BatchedParity, WorkspacePathMatchesLegacyAllocatingPath) {
  TwoBranchNet net = make_fitted_net(7);
  util::Rng rng(19);
  const nn::Matrix sensors = random_sensors(64, rng);
  const nn::Matrix inputs = random_branch2(64, rng);

  InferenceWorkspace ws;
  const nn::Matrix ws_est = net.estimate_batch(sensors, ws);
  const nn::Matrix ws_pred = net.predict_batch(inputs, ws);
  // Legacy signatures: owned copies via the net's internal workspace, and
  // the training-path forward underneath branch1()/branch2().
  EXPECT_TRUE(ws_est == net.estimate_batch(sensors));
  EXPECT_TRUE(ws_pred == net.predict_batch(inputs));
  const nn::Matrix train_path =
      net.branch1().forward(net.scaler1().transform(sensors), false);
  const nn::Matrix train_pred =
      net.branch2().forward(net.scaler2().transform(inputs), false);
  // The training forward (matmul, then the bias) is the one independent
  // arithmetic under the f64 inference path: hold the batched and the
  // scalar calls of both branches to it.
  for (std::size_t r = 0; r < sensors.rows(); ++r) {
    EXPECT_NEAR(ws_est(r, 0), train_path(r, 0), kTol);
    EXPECT_NEAR(ws_pred(r, 0), train_pred(r, 0), kTol);
    EXPECT_NEAR(net.estimate_soc(sensors(r, 0), sensors(r, 1), sensors(r, 2),
                                 ws),
                train_path(r, 0), kTol);
    EXPECT_NEAR(net.predict_soc(inputs(r, 0), inputs(r, 1), inputs(r, 2),
                                inputs(r, 3), ws),
                train_pred(r, 0), kTol);
  }
}

TEST(BatchedParity, RepeatedWorkspaceUseAtVaryingBatchSizes) {
  // Shrinking then growing the batch reuses buffers; results must not
  // depend on workspace history.
  TwoBranchNet net = make_fitted_net(7);
  util::Rng rng(23);
  InferenceWorkspace ws;
  const nn::Matrix big = random_sensors(200, rng);
  const nn::Matrix small = random_sensors(3, rng);

  const nn::Matrix first_big = net.estimate_batch(big, ws);
  const nn::Matrix after_small = net.estimate_batch(small, ws);
  const nn::Matrix second_big = net.estimate_batch(big, ws);
  EXPECT_TRUE(first_big == second_big);
  InferenceWorkspace fresh;
  EXPECT_TRUE(after_small == net.estimate_batch(small, fresh));
}

}  // namespace
}  // namespace socpinn::core
