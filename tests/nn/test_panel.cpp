/// The contract of the scalar-templated panel layer (nn/panel.hpp):
///
///  * instantiated at double, the snapshot reproduces the net's own
///    forward BITWISE — MlpSnapshotT<double> equals Mlp::infer_columns,
///    ScalerStatsT<double> equals StandardScaler::transform_columns_into —
///    which pins the copied weights to the live ones, and the snapshot's
///    fused dense + ReLU steps to the net's separate passes;
///  * instantiated at float, results track the f64 path within float
///    round-off at every batch size (full tiles, the half-width float
///    tile, and the scalar remainder);
///  * moment conversion is a checked, one-way snapshot: f64 -> f32 is the
///    nearest-float image of the fitted stats, f64 -> f64 is lossless.

#include "nn/panel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/layer.hpp"
#include "nn/mlp.hpp"
#include "nn/scaler.hpp"
#include "nn/workspace.hpp"
#include "util/rng.hpp"

namespace socpinn::nn {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Matrix m(rows, cols);
  for (auto& v : m.data()) v = rng.uniform(-2.0, 2.0);
  return m;
}

template <typename T>
MatrixT<T> to_panel(const Matrix& m) {
  MatrixT<T> out(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.size(); ++i) {
    out.data()[i] = static_cast<T>(m.data()[i]);
  }
  return out;
}

TEST(MatrixT, ResizeReusesCapacityAndKeepsShape) {
  MatrixT<float> m(4, 8, 1.0f);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 8u);
  EXPECT_EQ(m.size(), 32u);
  m.resize(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m.fill(2.5f);
  for (const float v : m.data()) EXPECT_EQ(v, 2.5f);
  m(1, 2) = -1.0f;
  EXPECT_EQ(m(1, 2), -1.0f);
}

TEST(PanelKernel, FloatTracksDoubleWithinRoundoff) {
  util::Rng rng(13);
  const Matrix w = random_matrix(16, 32, rng);
  const Matrix b = random_matrix(1, 32, rng);
  // Batch sizes pick out the float-only paths too: 64-wide main tile,
  // 32-wide half tile (32..63), and the scalar remainder.
  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{17}, std::size_t{32}, std::size_t{48},
        std::size_t{63}, std::size_t{64}, std::size_t{129}}) {
    const Matrix a = random_matrix(16, batch, rng);
    Matrix expected;
    dense_forward_columns(a, w, b, expected);

    const auto af = to_panel<float>(a);
    const auto wf = to_panel<float>(w);
    const auto bf = to_panel<float>(b);
    MatrixT<float> got;
    dense_forward_columns(af, wf, bf, got);
    ASSERT_EQ(got.rows(), expected.rows());
    ASSERT_EQ(got.cols(), expected.cols());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      // 16-term dot products of O(1) values: float round-off stays well
      // below 1e-4.
      EXPECT_NEAR(static_cast<double>(got.data()[i]), expected.data()[i],
                  1e-4)
          << "batch " << batch;
    }
  }
}

TEST(PanelKernel, ValidatesShapesAndAliasing) {
  MatrixT<float> a(3, 8), w(4, 2), b(1, 2), out;
  EXPECT_THROW(dense_forward_columns(a, w, b, out), std::invalid_argument);
  MatrixT<float> w_ok(3, 2), b_bad(1, 3);
  EXPECT_THROW(dense_forward_columns(a, w_ok, b_bad, out),
               std::invalid_argument);
  EXPECT_THROW(dense_forward_columns(a, w_ok, b, a), std::invalid_argument);
}

TEST(ScalerStats, DoubleConversionIsLossless) {
  StandardScaler scaler =
      StandardScaler::from_moments({3.7, -1.5, 25.0}, {0.3, 2.0, 8.0});
  const auto stats = ScalerStatsT<double>::from(scaler);
  ASSERT_EQ(stats.num_features(), 3u);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(stats.means[c], scaler.means()[c]);
    EXPECT_EQ(stats.stds[c], scaler.stds()[c]);
  }
}

TEST(ScalerStats, FloatConversionRoundTripsThroughNearestFloat) {
  // The f32 snapshot of the stats must be exactly the nearest-float image
  // of the fitted f64 moments — converting once at load means there is no
  // other rounding step to hide behind.
  StandardScaler scaler = StandardScaler::from_moments(
      {0.1234567890123, -1.5e-3, 2.5e4}, {0.25, 7.7e-2, 1.8e3});
  const auto stats = ScalerStatsT<float>::from(scaler);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(stats.means[c], static_cast<float>(scaler.means()[c]));
    EXPECT_EQ(stats.stds[c], static_cast<float>(scaler.stds()[c]));
    // And the round-trip back to double is the float value exactly.
    EXPECT_EQ(static_cast<double>(stats.means[c]),
              static_cast<double>(static_cast<float>(scaler.means()[c])));
  }
}

TEST(ScalerStats, UnfittedScalerThrows) {
  const StandardScaler unfitted;
  EXPECT_THROW((void)ScalerStatsT<float>::from(unfitted), std::logic_error);
  EXPECT_THROW((void)ScalerStatsT<double>::from(unfitted), std::logic_error);
}

TEST(ScalerStats, TransformColumnsMatchesScalerAtDouble) {
  util::Rng rng(17);
  const Matrix fit_data = random_matrix(40, 4, rng);
  StandardScaler scaler;
  scaler.fit(fit_data);

  const Matrix x = random_matrix(4, 50, rng);  // feature-major panel
  Matrix expected;
  scaler.transform_columns_into(x, expected);

  const auto stats = ScalerStatsT<double>::from(scaler);
  const auto xt = to_panel<double>(x);
  MatrixT<double> got;
  stats.transform_columns_into(xt, got);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got.data()[i], expected.data()[i]);
  }

  MatrixT<double> wrong_rows(3, 50);
  EXPECT_THROW(stats.transform_columns_into(wrong_rows, got),
               std::invalid_argument);
}

TEST(ScalerStats, ConstantColumnFallbackSurvivesConversion) {
  // fit()'s constant-column branch (stds_[c] < 1e-12) replaces a degenerate
  // std with max(1, |mean|); the converted stats must inherit that
  // fallback, not the raw zero, so f32 serving of a constant feature (e.g.
  // a fixed horizon N) stays finite.
  Matrix x(10, 2);
  for (std::size_t r = 0; r < 10; ++r) {
    x(r, 0) = 120.0;   // constant, magnitude > 1 -> std 120
    x(r, 1) = -0.25;   // constant, magnitude < 1 -> std 1
  }
  StandardScaler scaler;
  scaler.fit(x);
  const auto stats = ScalerStatsT<float>::from(scaler);
  EXPECT_EQ(stats.stds[0], 120.0f);
  EXPECT_EQ(stats.stds[1], 1.0f);

  MatrixT<float> probe(2, 1);
  probe(0, 0) = 240.0f;
  probe(1, 0) = -0.25f;
  MatrixT<float> z;
  stats.transform_columns_into(probe, z);
  EXPECT_FLOAT_EQ(z(0, 0), 1.0f);  // (240 - 120) / 120
  EXPECT_FLOAT_EQ(z(1, 0), 0.0f);
}

/// The inputs of the snapshot's fusion rule, all 4 -> 1: the paper's ReLU
/// branch, the same shape under every ActivationKind between its dense
/// layers, a ReLU ahead of the first dense layer, Dense -> ReLU -> ReLU,
/// and a net that mixes ReLU and tanh. Only a ReLU directly after a dense
/// layer fuses into its kernel; the live net runs every layer on its own.
std::vector<Mlp> fusion_rule_nets() {
  std::vector<Mlp> nets;
  {
    util::Rng r(7);
    nets.push_back(Mlp::make({4, 16, 32, 16, 1}, r));
  }
  for (const ActivationKind kind :
       {ActivationKind::kRelu, ActivationKind::kLeakyRelu,
        ActivationKind::kTanh, ActivationKind::kSigmoid,
        ActivationKind::kIdentity}) {
    util::Rng r(11);
    nets.push_back(Mlp::make({4, 16, 32, 16, 1}, r, kind));
  }
  util::Rng r(13);
  const auto dense = [&](std::size_t in, std::size_t out) {
    return std::make_unique<Dense>(in, out, r);
  };
  const auto act = [](ActivationKind kind) {
    return std::make_unique<Activation>(kind);
  };
  Mlp ahead;
  ahead.add(act(ActivationKind::kRelu));
  ahead.add(dense(4, 16));
  ahead.add(act(ActivationKind::kRelu));
  ahead.add(dense(16, 1));
  nets.push_back(std::move(ahead));
  Mlp twice;
  twice.add(dense(4, 16));
  twice.add(act(ActivationKind::kRelu));
  twice.add(act(ActivationKind::kRelu));
  twice.add(dense(16, 1));
  nets.push_back(std::move(twice));
  Mlp mixed;
  mixed.add(dense(4, 16));
  mixed.add(act(ActivationKind::kRelu));
  mixed.add(dense(16, 32));
  mixed.add(act(ActivationKind::kTanh));
  mixed.add(dense(32, 16));
  mixed.add(act(ActivationKind::kRelu));
  mixed.add(dense(16, 1));
  mixed.add(act(ActivationKind::kRelu));
  nets.push_back(std::move(mixed));
  return nets;
}

TEST(MlpSnapshot, DoubleSnapshotMatchesMlpInferColumnsBitwise) {
  util::Rng rng(19);
  for (const Mlp& mlp : fusion_rule_nets()) {
    SCOPED_TRACE(mlp.describe());
    const auto snapshot = MlpSnapshotT<double>::from(mlp);
    ASSERT_EQ(snapshot.num_layers(), mlp.num_layers());

    ForwardWorkspace ws;
    ForwardWorkspaceT<double> wst;
    for (const std::size_t batch :
         {std::size_t{1}, std::size_t{33}, std::size_t{64}, std::size_t{97}}) {
      const Matrix input = random_matrix(4, batch, rng);
      const Matrix& expected = mlp.infer_columns(input, ws);
      const auto it = to_panel<double>(input);
      const MatrixT<double>& got = snapshot.infer_columns(it, wst);
      ASSERT_EQ(got.rows(), expected.rows());
      ASSERT_EQ(got.cols(), expected.cols());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(got.data()[i], expected.data()[i]) << "batch " << batch;
      }
    }
  }
}

TEST(MlpSnapshot, FloatSnapshotTracksDoubleWithinTolerance) {
  util::Rng rng(23);
  for (const Mlp& mlp : fusion_rule_nets()) {
    SCOPED_TRACE(mlp.describe());
    const auto snapshot = MlpSnapshotT<float>::from(mlp);

    ForwardWorkspace ws;
    ForwardWorkspaceT<float> wsf;
    const Matrix input = random_matrix(4, 80, rng);
    const Matrix& expected = mlp.infer_columns(input, ws);
    const auto inf = to_panel<float>(input);
    const MatrixT<float>& got = snapshot.infer_columns(inf, wsf);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_NEAR(static_cast<double>(got.data()[i]), expected.data()[i],
                  1e-4);
    }
  }
}

TEST(MlpSnapshot, ForwardAlternatesTwoWorkspaceBuffers) {
  // Seven layers, four fused steps: the layer panels ping-pong between two
  // buffers instead of taking one per layer.
  util::Rng rng(37);
  const Mlp mlp = Mlp::make({4, 16, 32, 16, 1}, rng);
  const auto snapshot = MlpSnapshotT<double>::from(mlp);
  ForwardWorkspaceT<double> ws;
  const MatrixT<double> input = to_panel<double>(random_matrix(4, 64, rng));
  const MatrixT<double>& out = snapshot.infer_columns(input, ws);
  EXPECT_EQ(ws.num_buffers(), 2u);
  EXPECT_EQ(&out, &ws.buffer(1));
}

/// A layer kind the snapshot does not know: an elementwise pass-through,
/// so the Mlp stays well-formed and only the snapshot's layer check fires.
class PassThroughLayer final : public Layer {
 public:
  Matrix forward(const Matrix& input, bool /*train*/) override {
    return input;
  }
  Matrix backward(const Matrix& grad_output) override { return grad_output; }
  void infer_columns(const Matrix& input, Matrix& out) const override {
    out = input;
  }
  [[nodiscard]] std::string name() const override { return "pass_through"; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<PassThroughLayer>(*this);
  }
};

TEST(MlpSnapshot, RejectsUnsupportedLayers) {
  util::Rng rng(29);
  Mlp mlp = Mlp::make({3, 8, 1}, rng);
  mlp.add(std::make_unique<PassThroughLayer>());
  EXPECT_THROW((void)MlpSnapshotT<float>::from(mlp), std::invalid_argument);

  // Known layer kinds that do not chain: Dense(4->16), ReLU, Dense(20->1)
  // is rejected when the snapshot is built, not at its first forward.
  Mlp mischained;
  mischained.add(std::make_unique<Dense>(4, 16, rng));
  mischained.add(std::make_unique<Activation>(ActivationKind::kRelu));
  mischained.add(std::make_unique<Dense>(20, 1, rng));
  EXPECT_THROW((void)MlpSnapshotT<double>::from(mischained),
               std::invalid_argument);
  EXPECT_THROW((void)MlpSnapshotT<float>::from(mischained),
               std::invalid_argument);
}

TEST(MlpSnapshot, ValidatesInputWidth) {
  util::Rng rng(31);
  const Mlp mlp = Mlp::make({3, 8, 1}, rng);
  const auto snapshot = MlpSnapshotT<float>::from(mlp);
  ForwardWorkspaceT<float> ws;
  MatrixT<float> wrong(4, 10, 0.1f);
  EXPECT_THROW((void)snapshot.infer_columns(wrong, ws),
               std::invalid_argument);
}

}  // namespace
}  // namespace socpinn::nn
