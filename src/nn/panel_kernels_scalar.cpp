/// \file panel_kernels_scalar.cpp
/// The portable dispatch fallback and the parity reference every explicit
/// SIMD kernel is measured against: the scalar template of
/// panel_kernels.hpp, exported as the dispatcher's "scalar" row at both
/// serve precisions and compiled at the build's baseline ISA (so a NATIVE
/// build still autovectorizes it — "scalar" means scalar SOURCE, not
/// scalar code). Each multiply-add is one std::fma (simd::mul_add), the
/// single rounding the vector kernels' FMAs reproduce lane-by-lane: one FMA
/// instruction where the build's ISA has it, a libm fma/fmaf call per MAC
/// on a portable build, which is what makes forced-scalar runs slow there.
/// The library builds with -ffp-contract=off, so nothing else fuses.

#include "nn/panel_dispatch.hpp"
#include "nn/panel_kernels.hpp"

namespace socpinn::nn::detail {

// `extern`: a namespace-scope const has internal linkage otherwise.
extern const simd::PanelKernels kScalarKernels = {
    &dense_columns_kernel<float>, &dense_columns_kernel<double>};

}  // namespace socpinn::nn::detail
