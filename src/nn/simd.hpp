#pragma once
/// \file simd.hpp
/// Lane abstraction behind the explicitly vectorized panel kernels: a
/// Vec<T, W> value wrapper with load / store / broadcast / mul_add / relu,
/// one specialization per ISA register type (AVX2, AVX-512F, NEON), so ONE
/// tile body (panel_kernels_simd.hpp) serves every ISA.
///
/// Parity contract: every mul_add is FUSED — one multiply-add with one
/// rounding: a vector FMA in each Vec specialization, std::fma in the
/// scalar overloads beside them, which the scalar reference
/// (panel_kernels.hpp) and the vector kernels' remainder loops call. An
/// FMA is correctly rounded, so each lane computes exactly the scalar
/// reference's std::fma, and the f64 AVX2 / AVX-512 / NEON kernels are
/// bitwise identical to the scalar reference on every host. The build
/// keeps -ffp-contract=off globally (see CMakeLists.txt), so the compiler
/// never fuses on its own: fusion happens here, explicitly, or nowhere
/// (the invariant lint's fp-contract rule keeps fma out of every other
/// file). tests/nn/test_simd_dispatch.cpp pins both halves: every ISA
/// against the scalar reference, and every ISA against an input whose
/// unfused result differs.
///
/// relu is the kernels' fused epilogue, `x > 0 ? x : 0` in every lane:
/// activate_columns' ReLU formula, so -0.0 and NaN both become +0.0 and a
/// fused dense + ReLU step stays bitwise equal to the two separate passes.
///
/// Each specialization is guarded by the compiler's own ISA macro, so this
/// header is safe to include from any TU: a TU compiled at the SSE2
/// baseline sees no specialization at all, while the per-ISA kernel TUs
/// (compiled with -mavx2 -mfma / -mavx512f, or targeting aarch64) see
/// theirs.

#include <cmath>
#include <cstddef>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif
#if defined(__ARM_NEON) && defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace socpinn::nn::simd {

/// acc + a * b with one rounding: the scalar reference's multiply-add and
/// the vector kernels' remainder columns. Compiled to one FMA instruction
/// where the TU's ISA has one, to a libm call otherwise (a portable build's
/// scalar TU). always_inline: an out-of-line copy of an inline function is
/// COMDAT-folded across TUs, so the scalar TU could end up calling the
/// FMA-encoded copy from the AVX2 TU on a host without FMA. fmaf, not the
/// float overload of std::fma, for the same reason: that overload is
/// itself an inline libstdc++ function.
[[gnu::always_inline]] inline double mul_add(double a, double b,
                                             double acc) {
  return std::fma(a, b, acc);
}

[[gnu::always_inline]] inline float mul_add(float a, float b, float acc) {
  return std::fmaf(a, b, acc);
}

/// x > 0 ? x : 0 — the ReLU of activate_columns and of the scalar
/// kernels' epilogue. always_inline for the same COMDAT reason as mul_add.
[[gnu::always_inline]] inline double relu(double x) {
  return x > 0.0 ? x : 0.0;
}

[[gnu::always_inline]] inline float relu(float x) {
  return x > 0.0f ? x : 0.0f;
}

/// Vec<T, W>: W lanes of scalar T in one register. Required interface:
///   Scalar            — T
///   kWidth            — W
///   kTileVecs         — vectors per accumulator row in the register tile
///                       (sized to the ISA's register file: 16 regs -> 2,
///                       32 regs -> 4)
///   load / broadcast / store, free mul_add(a, b, acc) = acc + a * b
///   (fused; see header comment) and free relu(x) = x > 0 ? x : 0 per lane.
template <typename T, int W>
struct Vec;

#if defined(__AVX2__) && defined(__FMA__)
// 16 ymm registers: 4x2 accumulator tile (8 regs) + loads + broadcast.
template <>
struct Vec<float, 8> {
  using Scalar = float;
  static constexpr int kWidth = 8;
  static constexpr int kTileVecs = 2;
  __m256 v;
  static Vec load(const float* p) { return {_mm256_loadu_ps(p)}; }
  static Vec broadcast(float x) { return {_mm256_set1_ps(x)}; }
  void store(float* p) const { _mm256_storeu_ps(p, v); }
};

inline Vec<float, 8> mul_add(Vec<float, 8> a, Vec<float, 8> b,
                             Vec<float, 8> acc) {
  return {_mm256_fmadd_ps(a.v, b.v, acc.v)};
}

// max returns its second operand unless the first is greater, so x goes
// first: -0.0 and NaN lanes take the 0.
inline Vec<float, 8> relu(Vec<float, 8> x) {
  return {_mm256_max_ps(x.v, _mm256_setzero_ps())};
}

template <>
struct Vec<double, 4> {
  using Scalar = double;
  static constexpr int kWidth = 4;
  static constexpr int kTileVecs = 2;
  __m256d v;
  static Vec load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static Vec broadcast(double x) { return {_mm256_set1_pd(x)}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
};

inline Vec<double, 4> mul_add(Vec<double, 4> a, Vec<double, 4> b,
                              Vec<double, 4> acc) {
  return {_mm256_fmadd_pd(a.v, b.v, acc.v)};
}

inline Vec<double, 4> relu(Vec<double, 4> x) {
  return {_mm256_max_pd(x.v, _mm256_setzero_pd())};
}
#endif  // __AVX2__ && __FMA__

#if defined(__AVX512F__)
// 32 zmm registers: 4x4 accumulator tile (16 regs) — the tile column
// widths (64 floats / 32 doubles) land exactly on the scalar template's
// tile shape.
template <>
struct Vec<float, 16> {
  using Scalar = float;
  static constexpr int kWidth = 16;
  static constexpr int kTileVecs = 4;
  __m512 v;
  static Vec load(const float* p) { return {_mm512_loadu_ps(p)}; }
  static Vec broadcast(float x) { return {_mm512_set1_ps(x)}; }
  void store(float* p) const { _mm512_storeu_ps(p, v); }
};

inline Vec<float, 16> mul_add(Vec<float, 16> a, Vec<float, 16> b,
                              Vec<float, 16> acc) {
  return {_mm512_fmadd_ps(a.v, b.v, acc.v)};
}

// x first, as for AVX2. The all-ones zero-masked form is the same vmaxps:
// GCC 12's unmasked _mm512_max_* passes _mm512_undefined_* and warns
// -Wuninitialized.
inline Vec<float, 16> relu(Vec<float, 16> x) {
  return {_mm512_maskz_max_ps(static_cast<__mmask16>(-1), x.v,
                              _mm512_setzero_ps())};
}

template <>
struct Vec<double, 8> {
  using Scalar = double;
  static constexpr int kWidth = 8;
  static constexpr int kTileVecs = 4;
  __m512d v;
  static Vec load(const double* p) { return {_mm512_loadu_pd(p)}; }
  static Vec broadcast(double x) { return {_mm512_set1_pd(x)}; }
  void store(double* p) const { _mm512_storeu_pd(p, v); }
};

inline Vec<double, 8> mul_add(Vec<double, 8> a, Vec<double, 8> b,
                              Vec<double, 8> acc) {
  return {_mm512_fmadd_pd(a.v, b.v, acc.v)};
}

inline Vec<double, 8> relu(Vec<double, 8> x) {
  return {_mm512_maskz_max_pd(static_cast<__mmask8>(-1), x.v,
                              _mm512_setzero_pd())};
}
#endif  // __AVX512F__

#if defined(__ARM_NEON) && defined(__aarch64__)
// 32 ASIMD registers: 4x4 accumulator tile, like AVX-512. f64 vectors
// need aarch64 (float64x2_t is not available on 32-bit NEON).
template <>
struct Vec<float, 4> {
  using Scalar = float;
  static constexpr int kWidth = 4;
  static constexpr int kTileVecs = 4;
  float32x4_t v;
  static Vec load(const float* p) { return {vld1q_f32(p)}; }
  static Vec broadcast(float x) { return {vdupq_n_f32(x)}; }
  void store(float* p) const { vst1q_f32(p, v); }
};

inline Vec<float, 4> mul_add(Vec<float, 4> a, Vec<float, 4> b,
                             Vec<float, 4> acc) {
  // vfmaq, not vmlaq: vmlaq rounds twice.
  return {vfmaq_f32(acc.v, a.v, b.v)};
}

// Compare and select, not vmaxq: vmaxq returns NaN for a NaN lane.
inline Vec<float, 4> relu(Vec<float, 4> x) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  return {vbslq_f32(vcgtq_f32(x.v, zero), x.v, zero)};
}

template <>
struct Vec<double, 2> {
  using Scalar = double;
  static constexpr int kWidth = 2;
  static constexpr int kTileVecs = 4;
  float64x2_t v;
  static Vec load(const double* p) { return {vld1q_f64(p)}; }
  static Vec broadcast(double x) { return {vdupq_n_f64(x)}; }
  void store(double* p) const { vst1q_f64(p, v); }
};

inline Vec<double, 2> mul_add(Vec<double, 2> a, Vec<double, 2> b,
                              Vec<double, 2> acc) {
  return {vfmaq_f64(acc.v, a.v, b.v)};
}

inline Vec<double, 2> relu(Vec<double, 2> x) {
  const float64x2_t zero = vdupq_n_f64(0.0);
  return {vbslq_f64(vcgtq_f64(x.v, zero), x.v, zero)};
}
#endif  // __ARM_NEON && __aarch64__

}  // namespace socpinn::nn::simd
