#include "nn/panel_dispatch.hpp"

#include <cstdlib>
#include <iterator>
#include <stdexcept>
#include <string>

namespace socpinn::nn::detail {

// Each kernel TU exports its ISA's row (panel_kernels_<isa>.cpp). The
// optional rows are defined only when CMake set the matching
// SOCPINN_ENABLE_* for this architecture, so only kIsas names them, under
// the same #if.
extern const simd::PanelKernels kScalarKernels;
extern const simd::PanelKernels kAvx2Kernels;
extern const simd::PanelKernels kAvx512Kernels;
extern const simd::PanelKernels kNeonKernels;

}  // namespace socpinn::nn::detail

namespace socpinn::nn::simd {

namespace {

/// One ISA: its SOCPINN_FORCE_ISA name, its kernel row (nullptr when this
/// binary was built without it) and whether the host CPU can execute it
/// (called only when the row exists).
struct IsaRow {
  const char* name;
  const PanelKernels* kernels;
  bool (*host_runs)();
};

bool always() { return true; }

// In Isa order. __builtin_cpu_supports folds in the OS XSAVE state for AVX.
constexpr IsaRow kIsas[] = {
    {"scalar", &detail::kScalarKernels, always},
#if defined(SOCPINN_ENABLE_AVX2)
    // The AVX2 TU is built with -mfma too: every mul_add there is an FMA.
    {"avx2", &detail::kAvx2Kernels,
     [] {
       return __builtin_cpu_supports("avx2") != 0 &&
              __builtin_cpu_supports("fma") != 0;
     }},
#else
    {"avx2", nullptr, nullptr},
#endif
#if defined(SOCPINN_ENABLE_AVX512)
    {"avx512", &detail::kAvx512Kernels,
     [] { return __builtin_cpu_supports("avx512f") != 0; }},
#else
    {"avx512", nullptr, nullptr},
#endif
#if defined(SOCPINN_ENABLE_NEON)
    // AdvSIMD is part of the aarch64 base architecture: compiled implies
    // executable.
    {"neon", &detail::kNeonKernels, always},
#else
    {"neon", nullptr, nullptr},
#endif
};
static_assert(std::size(kIsas) == kNumIsas, "one kIsas row per Isa");

/// `isa`'s row, or nullptr for a value outside the enum.
const IsaRow* find_row(Isa isa) {
  const int i = static_cast<int>(isa);
  return i >= 0 && i < kNumIsas ? &kIsas[i] : nullptr;
}

}  // namespace

const char* isa_name(Isa isa) {
  const IsaRow* row = find_row(isa);
  if (row == nullptr) {
    throw std::invalid_argument("isa_name: unknown Isa value");
  }
  return row->name;
}

Isa parse_isa(const char* name) {
  const std::string s(name == nullptr ? "" : name);
  for (int i = 0; i < kNumIsas; ++i) {
    if (s == kIsas[i].name) return static_cast<Isa>(i);
  }
  throw std::invalid_argument(
      "SOCPINN_FORCE_ISA: unknown ISA '" + s +
      "' (expected scalar, avx2, avx512, or neon)");
}

bool isa_compiled(Isa isa) {
  const IsaRow* row = find_row(isa);
  return row != nullptr && row->kernels != nullptr;
}

bool isa_supported(Isa isa) {
  return isa_compiled(isa) && find_row(isa)->host_runs();
}

Isa resolve_isa(const char* force) {
  if (force != nullptr && force[0] != '\0') {
    const Isa isa = parse_isa(force);
    if (!isa_supported(isa)) {
      throw std::invalid_argument(
          std::string("SOCPINN_FORCE_ISA=") + force + ": " +
          (isa_compiled(isa)
               ? "the host CPU cannot execute this ISA"
               : "this binary was built without these kernels"));
    }
    return isa;
  }
  if (isa_supported(Isa::kAvx512)) return Isa::kAvx512;
  if (isa_supported(Isa::kAvx2)) return Isa::kAvx2;
  if (isa_supported(Isa::kNeon)) return Isa::kNeon;
  return Isa::kScalar;
}

Isa active_isa() {
  static const Isa isa = resolve_isa(std::getenv("SOCPINN_FORCE_ISA"));
  return isa;
}

const PanelKernels& panel_kernels(Isa isa) {
  if (!isa_supported(isa)) {
    throw std::invalid_argument(std::string("panel_kernels: ISA '") +
                                isa_name(isa) +
                                "' is not supported on this binary/host");
  }
  return *find_row(isa)->kernels;
}

const PanelKernels& active_panel_kernels() {
  static const PanelKernels& kernels = panel_kernels(active_isa());
  return kernels;
}

}  // namespace socpinn::nn::simd
