// Fixture: fused-multiply-add outside nn/simd.hpp — every EXPECT line
// must be flagged by fp-contract.
#include <cmath>

#pragma STDC FP_CONTRACT ON  // EXPECT fp-contract (pragma)

namespace fixture {

double mac(double a, double b, double c) {
  return std::fma(a, b, c);  // EXPECT fp-contract (std::fma)
}

float macf(float a, float b, float c) {
  return fmaf(a, b, c);  // EXPECT fp-contract (fmaf)
}

// Fused intrinsics, one line per form (the names alone are matched, so no
// intrinsic header is needed).
void intrinsics() {
  (void)_mm256_fmadd_pd(x, y, z);  // EXPECT fp-contract (_mm*_fmadd_*)
  (void)_mm512_fmsub_ps(x, y, z);  // EXPECT fp-contract (_mm*_fmsub_*)
  (void)vfmaq_f64(z, x, y);  // EXPECT fp-contract (vfmaq_*)
}

}  // namespace fixture
