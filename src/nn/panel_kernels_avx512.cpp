/// \file panel_kernels_avx512.cpp
/// AVX-512F instantiation of the vectorized panel kernel, exported as the
/// dispatcher's "avx512" row — compiled with -mavx512f on x86 (this TU
/// only; see panel_kernels_avx2.cpp for the dispatch/isolation rules).
/// AVX-512F carries its own FMA instructions, vector and scalar, so no
/// -mfma is needed. The 4x4 zmm accumulator tile covers 64 f32 / 32 f64
/// batch columns per pass, the scalar template's exact tile widths.

#if defined(SOCPINN_ENABLE_AVX512)

#include "nn/panel_dispatch.hpp"
#include "nn/panel_kernels_simd.hpp"

namespace socpinn::nn::detail {

// `extern`: a namespace-scope const has internal linkage otherwise.
extern const simd::PanelKernels kAvx512Kernels = {
    &dense_columns_kernel_vec<simd::Vec<float, 16>>,
    &dense_columns_kernel_vec<simd::Vec<double, 8>>};

}  // namespace socpinn::nn::detail

#endif  // SOCPINN_ENABLE_AVX512
