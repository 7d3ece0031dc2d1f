#pragma once
/// \file panel_dispatch.hpp
/// Runtime ISA dispatch for the feature-major panel kernels.
///
/// The serve forward's hot inner loop — the dense panel kernel — exists in
/// four instantiations: the portable scalar template (panel_kernels.hpp,
/// autovectorized at the build's baseline ISA) and explicit AVX2 /
/// AVX-512F / NEON kernels (panel_kernels_simd.hpp over simd::Vec,
/// compiled in per-ISA TUs so a baseline build still carries them). This
/// header is the seam that picks one at runtime:
///
///   * detection order: AVX-512F > AVX2 > NEON > scalar, resolved ONCE on
///     first use (cpuid via __builtin_cpu_supports on x86; NEON is the
///     aarch64 baseline) and cached for the process lifetime;
///   * `SOCPINN_FORCE_ISA=scalar|avx2|avx512|neon` overrides detection for
///     testing and benchmarking — an unknown name or an ISA this binary /
///     host cannot run throws std::invalid_argument (loudly, instead of
///     silently falling back and "passing" a forced-ISA CI job on the
///     wrong kernel);
///   * every ISA's f64 kernel is bitwise identical to the scalar reference
///     and f32 within 1 ulp (in practice bitwise; see simd.hpp's fused
///     mul_add contract: one correctly rounded FMA per multiply-add on
///     every path), so dispatch NEVER changes results — only throughput.
///     Engines stay bitwise thread-count- and ISA-invariant.
///
/// The ISA set is one table: each kernel TU exports its PanelKernels row
/// and panel_dispatch.cpp holds one row per Isa, so a new ISA is one TU,
/// one row and its CMake flags. The hot path, nn::dense_forward_columns<T>
/// (nn/panel.cpp), calls its precision's member of active_panel_kernels();
/// everything else (tests, benches, the engines' config surface) can
/// enumerate ISAs, query support, and fetch a specific ISA's row. The
/// per-ISA TUs include this header, so it defines no inline functions:
/// COMDAT folding would let one ISA's copy serve every TU.

#include <cstddef>

namespace socpinn::nn::simd {

/// The panel kernel instantiations this dispatcher knows about.
enum class Isa : int {
  kScalar = 0,  ///< portable template, autovectorized at the build baseline
  kAvx2 = 1,    ///< explicit 256-bit x86 kernels (AVX2 + FMA)
  kAvx512 = 2,  ///< explicit 512-bit x86 kernels (AVX-512F)
  kNeon = 3,    ///< explicit 128-bit aarch64 kernels
};
inline constexpr int kNumIsas = 4;

/// "scalar" | "avx2" | "avx512" | "neon" — the SOCPINN_FORCE_ISA spelling.
[[nodiscard]] const char* isa_name(Isa isa);

/// Inverse of isa_name; throws std::invalid_argument on an unknown name.
[[nodiscard]] Isa parse_isa(const char* name);

/// Whether this binary carries `isa`'s kernels (a NATIVE=OFF x86 build
/// still compiles AVX2/AVX-512 TUs; an aarch64 build compiles NEON).
[[nodiscard]] bool isa_compiled(Isa isa);

/// isa_compiled AND the host CPU can execute it. kScalar is always true.
[[nodiscard]] bool isa_supported(Isa isa);

/// Pure resolution logic (no env read, no cache): `force` is the
/// SOCPINN_FORCE_ISA value or nullptr/"" for auto-detection. Throws
/// std::invalid_argument when `force` names an unknown or unsupported ISA.
/// Exposed so tests can pin the policy without mutating the environment.
[[nodiscard]] Isa resolve_isa(const char* force);

/// The process-wide ISA every panel call dispatches to: resolve_isa() of
/// the SOCPINN_FORCE_ISA environment variable, computed once on first call
/// (thread-safe) and cached. A bad override therefore throws at the first
/// panel use — the serve engines force that resolution at construction so
/// it surfaces on the caller's thread, not inside a worker.
[[nodiscard]] Isa active_isa();

/// Raw-pointer dense panel kernel (out = W^T * a + bias, `a` in_f x batch
/// with batch unit-stride, stored through ReLU when `relu` is set); same
/// contract as detail::dense_columns_kernel.
template <typename T>
using DenseColumnsFn = void (*)(const T* a, const T* w, const T* bias,
                                T* out, std::size_t in_f, std::size_t out_f,
                                std::size_t batch, bool relu);

/// One ISA's kernel instantiations, both serve precisions.
struct PanelKernels {
  DenseColumnsFn<float> f32;
  DenseColumnsFn<double> f64;
};

/// `isa`'s kernel row; throws std::invalid_argument when the ISA is not
/// supported on this binary + host (use isa_supported to probe first).
[[nodiscard]] const PanelKernels& panel_kernels(Isa isa);

/// panel_kernels(active_isa()), resolved once.
[[nodiscard]] const PanelKernels& active_panel_kernels();

}  // namespace socpinn::nn::simd
