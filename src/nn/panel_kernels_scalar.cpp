/// \file panel_kernels_scalar.cpp
/// The portable dispatch fallback and the parity reference every explicit
/// SIMD kernel is measured against: the scalar template of
/// panel_kernels.hpp, exported as the dispatcher's "scalar" row at both
/// serve precisions and compiled at the build's baseline ISA (so a NATIVE
/// build still autovectorizes it — "scalar" means scalar SOURCE, not
/// scalar code). The library builds with -ffp-contract=off, so this TU's
/// arithmetic is the exact two-rounding multiply-add sequence the vector
/// kernels reproduce lane-by-lane.

#include "nn/panel_dispatch.hpp"
#include "nn/panel_kernels.hpp"

namespace socpinn::nn::detail {

// `extern`: a namespace-scope const has internal linkage otherwise.
extern const simd::PanelKernels kScalarKernels = {
    &dense_columns_kernel<float>, &dense_columns_kernel<double>};

}  // namespace socpinn::nn::detail
