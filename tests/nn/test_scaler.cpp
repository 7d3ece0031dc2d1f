#include "nn/scaler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/rng.hpp"

namespace socpinn::nn {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Matrix m(rows, cols);
  for (auto& v : m.data()) v = rng.normal(3.0, 2.0);
  return m;
}

TEST(StandardScaler, TransformedColumnsAreStandardized) {
  util::Rng rng(5);
  const Matrix x = random_matrix(500, 3, rng);
  StandardScaler scaler;
  const Matrix z = scaler.fit_transform(x);
  for (std::size_t c = 0; c < 3; ++c) {
    double mean = 0.0, var = 0.0;
    for (std::size_t r = 0; r < z.rows(); ++r) mean += z(r, c);
    mean /= static_cast<double>(z.rows());
    for (std::size_t r = 0; r < z.rows(); ++r) {
      var += (z(r, c) - mean) * (z(r, c) - mean);
    }
    var /= static_cast<double>(z.rows());
    EXPECT_NEAR(mean, 0.0, 1e-10);
    EXPECT_NEAR(var, 1.0, 1e-10);
  }
}

TEST(StandardScaler, InverseTransformRoundTrips) {
  util::Rng rng(6);
  const Matrix x = random_matrix(50, 4, rng);
  StandardScaler scaler;
  const Matrix z = scaler.fit_transform(x);
  const Matrix back = scaler.inverse_transform(z);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back.data()[i], x.data()[i], 1e-10);
  }
}

TEST(StandardScaler, TransformRowMatchesBatch) {
  util::Rng rng(7);
  const Matrix x = random_matrix(20, 3, rng);
  StandardScaler scaler;
  scaler.fit(x);
  const Matrix z = scaler.transform(x);
  double row[3] = {x(4, 0), x(4, 1), x(4, 2)};
  scaler.transform_row(row);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_DOUBLE_EQ(row[c], z(4, c));
  }
}

TEST(StandardScaler, ConstantColumnScalesByMagnitude) {
  // A constant horizon column (e.g. N = 120 s everywhere) must divide by
  // its magnitude so unseen horizons map to O(1) deviations — this is what
  // keeps the No-PINN model from exploding at test horizons.
  Matrix x(10, 1, 120.0);
  StandardScaler scaler;
  scaler.fit(x);
  EXPECT_DOUBLE_EQ(scaler.stds()[0], 120.0);
  Matrix probe(1, 1, 240.0);
  EXPECT_DOUBLE_EQ(scaler.transform(probe)(0, 0), 1.0);
}

TEST(StandardScaler, ConstantZeroColumnUsesUnitScale) {
  Matrix x(10, 1, 0.0);
  StandardScaler scaler;
  scaler.fit(x);
  EXPECT_DOUBLE_EQ(scaler.stds()[0], 1.0);
}

TEST(StandardScaler, NearConstantColumnTriggersFallback) {
  // The fallback branch keys on std < 1e-12, not on exact equality: a
  // column whose jitter is below that threshold must also take the
  // magnitude fallback instead of dividing by a denormal-scale std.
  Matrix x(4, 1);
  x(0, 0) = 50.0;
  x(1, 0) = 50.0 + 1e-14;
  x(2, 0) = 50.0;
  x(3, 0) = 50.0 - 1e-14;
  StandardScaler scaler;
  scaler.fit(x);
  EXPECT_DOUBLE_EQ(scaler.stds()[0], 50.0);
}

TEST(StandardScaler, NegativeConstantColumnScalesByMagnitude) {
  // |mean| matters, not mean: a constant negative column (e.g. a fixed
  // discharge current) scales by its magnitude.
  Matrix x(8, 1, -120.0);
  StandardScaler scaler;
  scaler.fit(x);
  EXPECT_DOUBLE_EQ(scaler.stds()[0], 120.0);
  Matrix probe(1, 1, 0.0);
  EXPECT_DOUBLE_EQ(scaler.transform(probe)(0, 0), 1.0);
}

TEST(StandardScaler, SubUnitConstantColumnUsesUnitScale) {
  // Constant columns with magnitude below 1 use the unit floor, so tiny
  // constants do not blow up standardized deviations.
  Matrix x(6, 1, 0.25);
  StandardScaler scaler;
  scaler.fit(x);
  EXPECT_DOUBLE_EQ(scaler.stds()[0], 1.0);
  // All transform layouts route through the same fallback moments.
  Matrix rowm(1, 1, 1.25);
  Matrix out = scaler.transform(rowm);
  EXPECT_DOUBLE_EQ(out(0, 0), 1.0);
  Matrix cols(1, 1, 1.25);
  scaler.transform_columns_into(cols, out);
  EXPECT_DOUBLE_EQ(out(0, 0), 1.0);
}

TEST(StandardScaler, UnfittedThrows) {
  const StandardScaler scaler;
  EXPECT_FALSE(scaler.fitted());
  EXPECT_THROW((void)scaler.transform(Matrix(1, 1)), std::logic_error);
  EXPECT_THROW((void)scaler.inverse_transform(Matrix(1, 1)),
               std::logic_error);
}

TEST(StandardScaler, WidthMismatchThrows) {
  StandardScaler scaler;
  scaler.fit(Matrix(5, 3, 1.0));
  EXPECT_THROW((void)scaler.transform(Matrix(5, 2)), std::invalid_argument);
}

TEST(StandardScaler, FromMomentsRebuilds) {
  const StandardScaler scaler =
      StandardScaler::from_moments({1.0, 2.0}, {0.5, 2.0});
  Matrix x(1, 2, std::vector<double>{2.0, 6.0});
  const Matrix z = scaler.transform(x);
  EXPECT_DOUBLE_EQ(z(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(z(0, 1), 2.0);
}

TEST(StandardScaler, FromMomentsValidates) {
  EXPECT_THROW((void)StandardScaler::from_moments({1.0}, {1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW((void)StandardScaler::from_moments({1.0}, {0.0}),
               std::invalid_argument);
  EXPECT_THROW((void)StandardScaler::from_moments({}, {}),
               std::invalid_argument);
  EXPECT_THROW((void)StandardScaler::from_moments({1.0}, {-0.5}),
               std::invalid_argument);
  // NaN compares false against everything, so a `std <= 0` guard alone
  // let it through; a model file with a NaN or Inf moment must fail to
  // load instead of poisoning every forward.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    EXPECT_THROW((void)StandardScaler::from_moments({1.0, 2.0}, {0.5, bad}),
                 std::invalid_argument)
        << "std " << bad;
    EXPECT_THROW((void)StandardScaler::from_moments({bad, 2.0}, {0.5, 1.0}),
                 std::invalid_argument)
        << "mean " << bad;
  }
}

TEST(StandardScaler, FitRejectsEmpty) {
  StandardScaler scaler;
  EXPECT_THROW(scaler.fit(Matrix()), std::invalid_argument);
}

TEST(StandardScaler, FitRejectsNonFiniteSamples) {
  // One NaN or Inf sample would make its column's moments NaN: every
  // forward would then return NaN and the scaler would not save loadably.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Matrix x(4, 2, 1.0);
    x(2, 1) = bad;
    StandardScaler scaler;
    EXPECT_THROW(scaler.fit(x), std::invalid_argument) << bad;
    EXPECT_FALSE(scaler.fitted()) << bad;
  }
}

}  // namespace
}  // namespace socpinn::nn
