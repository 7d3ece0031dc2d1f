#include "nn/gradcheck.hpp"

#include <gtest/gtest.h>

#include "nn/loss.hpp"

namespace socpinn::nn {
namespace {

TEST(GradCheck, AcceptsCorrectGradient) {
  // f(p) = sum(p^2) -> grad = 2p.
  Matrix p(2, 2, std::vector<double>{0.5, -1.0, 2.0, 0.1});
  Matrix analytic = p * 2.0;
  const auto result = check_gradient(
      p, analytic, [&] { return p.squared_norm(); }, 1e-6);
  EXPECT_TRUE(result.passed(1e-6));
  EXPECT_EQ(result.checked, 4u);
}

TEST(GradCheck, RejectsWrongGradient) {
  Matrix p(1, 2, std::vector<double>{1.0, 2.0});
  Matrix wrong(1, 2, std::vector<double>{0.0, 0.0});
  const auto result = check_gradient(
      p, wrong, [&] { return p.squared_norm(); }, 1e-6);
  EXPECT_FALSE(result.passed(1e-5));
}

TEST(GradCheck, RestoresParametersAfterProbing) {
  Matrix p(1, 3, std::vector<double>{1.0, 2.0, 3.0});
  const Matrix original = p;
  Matrix analytic = p * 2.0;
  (void)check_gradient(p, analytic, [&] { return p.squared_norm(); }, 1e-6);
  EXPECT_TRUE(p == original);
}

TEST(GradCheck, ValidatesArguments) {
  Matrix p(1, 2);
  Matrix g(2, 1);
  EXPECT_THROW(
      (void)check_gradient(p, g, [] { return 0.0; }, 1e-6),
      std::invalid_argument);
  Matrix g2(1, 2);
  EXPECT_THROW(
      (void)check_gradient(p, g2, [] { return 0.0; }, 0.0),
      std::invalid_argument);
}

}  // namespace
}  // namespace socpinn::nn
