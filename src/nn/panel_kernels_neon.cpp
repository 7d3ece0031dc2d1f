/// \file panel_kernels_neon.cpp
/// NEON (aarch64 AdvSIMD) instantiation of the vectorized panel kernel,
/// exported as the dispatcher's "neon" row. AdvSIMD is part of the aarch64
/// base architecture, so no per-file flags are needed —
/// SOCPINN_ENABLE_NEON is simply defined when CMake targets aarch64, and
/// compiled implies executable (the dispatcher still routes through the
/// same table as the x86 ISAs). The fused mul_add contract of simd.hpp
/// applies here too: vfmaq (never vmlaq, which rounds twice), so f64
/// results stay bitwise identical to the scalar reference's std::fma.

#if defined(SOCPINN_ENABLE_NEON)

#include "nn/panel_dispatch.hpp"
#include "nn/panel_kernels_simd.hpp"

namespace socpinn::nn::detail {

// `extern`: a namespace-scope const has internal linkage otherwise.
extern const simd::PanelKernels kNeonKernels = {
    &dense_columns_kernel_vec<simd::Vec<float, 4>>,
    &dense_columns_kernel_vec<simd::Vec<double, 2>>};

}  // namespace socpinn::nn::detail

#endif  // SOCPINN_ENABLE_NEON
