/// \file panel_kernels_avx2.cpp
/// AVX2 instantiation of the vectorized panel kernel, exported as the
/// dispatcher's "avx2" row. This TU (and only this TU) is compiled with
/// -mavx2 -mfma on x86 — the rest of the library stays at the build's
/// baseline ISA — so the row's kernels must only be reached through the
/// runtime dispatcher after a cpuid check for both extensions
/// (nn/panel_dispatch.cpp): every mul_add here is an FMA instruction.
/// Guarded by SOCPINN_ENABLE_AVX2 so the file is an empty TU on other
/// architectures.

#if defined(SOCPINN_ENABLE_AVX2)

#include "nn/panel_dispatch.hpp"
#include "nn/panel_kernels_simd.hpp"

namespace socpinn::nn::detail {

// `extern`: a namespace-scope const has internal linkage otherwise.
extern const simd::PanelKernels kAvx2Kernels = {
    &dense_columns_kernel_vec<simd::Vec<float, 8>>,
    &dense_columns_kernel_vec<simd::Vec<double, 4>>};

}  // namespace socpinn::nn::detail

#endif  // SOCPINN_ENABLE_AVX2
