#pragma once
// Fixture standing in for the real nn/simd.hpp: the ONE file where a
// fused path may be deliberately introduced — fp-contract must stay
// silent here.
#include <cmath>

namespace fixture {

inline double fused(double a, double b, double c) {
  return std::fma(a, b, c);  // allowlisted: nn/simd.hpp
}

inline Vec fused(Vec a, Vec b, Vec c) {
  return {_mm256_fmadd_pd(a.v, b.v, c.v)};  // allowlisted: nn/simd.hpp
}

}  // namespace fixture
