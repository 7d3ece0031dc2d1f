/// Pins the runtime-ISA panel dispatch (nn/panel_dispatch.hpp): the
/// resolution policy (detection order, SOCPINN_FORCE_ISA spelling, loud
/// failure on unknown/unsupported overrides), the parity contract — every
/// explicit SIMD kernel bitwise identical to the scalar reference at f64
/// and within 1 ulp at f32, across an exhaustive batch sweep covering every
/// tile/remainder decomposition, with the ReLU epilogue off and on — the
/// epilogue's signed zeros and NaN, the fused multiply-add every kernel
/// performs, and the 64-byte alignment contract of the panel carriers
/// (nn/aligned.hpp).
///
/// These tests exercise every kernel the BINARY carries that the HOST can
/// execute, independent of which one SOCPINN_FORCE_ISA pins for the serve
/// path — so a forced-scalar CI job still sweeps the AVX2 kernels.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "nn/aligned.hpp"
#include "nn/matrix.hpp"
#include "nn/panel.hpp"
#include "nn/panel_dispatch.hpp"
#include "util/rng.hpp"

namespace socpinn::nn {
namespace {

using simd::Isa;

std::vector<Isa> all_isas() {
  std::vector<Isa> isas;
  for (int i = 0; i < simd::kNumIsas; ++i) isas.push_back(static_cast<Isa>(i));
  return isas;
}

std::vector<Isa> supported_isas() {
  std::vector<Isa> isas;
  for (Isa isa : all_isas()) {
    if (simd::isa_supported(isa)) isas.push_back(isa);
  }
  return isas;
}

TEST(SimdDispatch, IsaNameParseRoundTrip) {
  for (Isa isa : all_isas()) {
    const char* name = simd::isa_name(isa);
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(simd::parse_isa(name), isa) << name;
  }
  EXPECT_THROW((void)simd::parse_isa("sse2"), std::invalid_argument);
  EXPECT_THROW((void)simd::parse_isa("AVX2"), std::invalid_argument)
      << "names are the exact SOCPINN_FORCE_ISA spelling, lowercase";
}

TEST(SimdDispatch, ScalarIsAlwaysCompiledAndSupported) {
  EXPECT_TRUE(simd::isa_compiled(Isa::kScalar));
  EXPECT_TRUE(simd::isa_supported(Isa::kScalar));
}

TEST(SimdDispatch, SupportedImpliesCompiled) {
  for (Isa isa : all_isas()) {
    if (simd::isa_supported(isa)) {
      EXPECT_TRUE(simd::isa_compiled(isa));
    }
  }
}

TEST(SimdDispatch, ActiveIsaIsSupported) {
  // Holds whatever SOCPINN_FORCE_ISA the ctest invocation pinned: a forced
  // ISA that resolved at all is by contract a supported one.
  EXPECT_TRUE(simd::isa_supported(simd::active_isa()));
}

TEST(SimdDispatch, ResolveIsaAutoPicksTheDetectionOrderWinner) {
  // nullptr and "" both mean auto-detect; the winner is the first supported
  // entry of the documented order AVX-512 > AVX2 > NEON > scalar.
  Isa best = Isa::kScalar;
  for (Isa candidate : {Isa::kAvx512, Isa::kAvx2, Isa::kNeon}) {
    if (simd::isa_supported(candidate)) {
      best = candidate;
      break;
    }
  }
  EXPECT_EQ(simd::resolve_isa(nullptr), best);
  EXPECT_EQ(simd::resolve_isa(""), best);
}

TEST(SimdDispatch, ResolveIsaHonorsForceAndThrowsLoudly) {
  EXPECT_EQ(simd::resolve_isa("scalar"), Isa::kScalar);
  for (Isa isa : all_isas()) {
    const char* name = simd::isa_name(isa);
    if (simd::isa_supported(isa)) {
      EXPECT_EQ(simd::resolve_isa(name), isa) << name;
    } else {
      // e.g. "neon" on x86, or "avx512" on an older CPU: forcing an ISA
      // this binary/host cannot run must throw, never silently fall back —
      // a forced-ISA CI job passing on the wrong kernel checks nothing.
      EXPECT_THROW((void)simd::resolve_isa(name), std::invalid_argument)
          << name;
    }
  }
  EXPECT_THROW((void)simd::resolve_isa("fastest"), std::invalid_argument);
}

TEST(SimdDispatch, PanelKernelsTableMatchesSupport) {
  for (Isa isa : all_isas()) {
    if (simd::isa_supported(isa)) {
      const simd::PanelKernels& k = simd::panel_kernels(isa);
      EXPECT_NE(k.f32, nullptr) << simd::isa_name(isa);
      EXPECT_NE(k.f64, nullptr) << simd::isa_name(isa);
    } else {
      EXPECT_THROW((void)simd::panel_kernels(isa), std::invalid_argument)
          << simd::isa_name(isa);
    }
  }
  EXPECT_EQ(simd::active_panel_kernels().f64,
            simd::panel_kernels(simd::active_isa()).f64);
  // Values outside the enum have no row: they read as absent, and the
  // queries that return a row's contents throw instead of indexing past it.
  for (const Isa outside : {static_cast<Isa>(-1),
                            static_cast<Isa>(simd::kNumIsas)}) {
    const int value = static_cast<int>(outside);
    EXPECT_FALSE(simd::isa_compiled(outside)) << value;
    EXPECT_FALSE(simd::isa_supported(outside)) << value;
    EXPECT_THROW((void)simd::isa_name(outside), std::invalid_argument)
        << value;
    EXPECT_THROW((void)simd::panel_kernels(outside), std::invalid_argument)
        << value;
  }
}

/// ulp distance between two floats of the same sign regime; 0 for bitwise
/// equality. Large sentinel when signs differ (never expected here).
std::uint32_t ulp_diff(float a, float b) {
  std::int32_t ia = 0, ib = 0;
  std::memcpy(&ia, &a, sizeof(a));
  std::memcpy(&ib, &b, sizeof(b));
  if ((ia < 0) != (ib < 0)) {
    return a == b ? 0u : 0x7fffffffu;  // +0 vs -0 counts as equal
  }
  const std::int64_t d = static_cast<std::int64_t>(ia) - ib;
  return static_cast<std::uint32_t>(d < 0 ? -d : d);
}

/// The parity sweep: every supported ISA against the scalar reference over
/// batches 1..130 — crossing every tile boundary of every kernel (scalar
/// f64 tiles at 32 columns, f32 at 64/32; AVX-512 tiles at 32/64; AVX2 at
/// 8/16 per vector with 2-vector tiles; NEON at 2/4 with 4-vector tiles)
/// plus the single-vector pass and the scalar remainder, and out_f values
/// hitting the 4-row tile, its remainder rows, and out_f == 1 — each with
/// the ReLU epilogue off and on.
TEST(SimdDispatch, ExhaustiveSweepMatchesScalarReference) {
  constexpr std::size_t kMaxBatch = 130;
  constexpr std::size_t kMaxInF = 16;
  constexpr std::size_t kMaxOutF = 32;
  const std::size_t in_fs[] = {3, 16};
  const std::size_t out_fs[] = {1, 7, 16, 32};

  const std::vector<Isa> isas = supported_isas();
  ASSERT_GE(isas.size(), 1u);
  const simd::PanelKernels& scalar = simd::panel_kernels(Isa::kScalar);

  util::Rng rng(99);
  AlignedVector<double> a64(kMaxInF * kMaxBatch), w64(kMaxInF * kMaxOutF),
      b64(kMaxOutF), ref64(kMaxOutF * kMaxBatch), out64(kMaxOutF * kMaxBatch);
  AlignedVector<float> a32(a64.size()), w32(w64.size()), b32(b64.size()),
      ref32(ref64.size()), out32(out64.size());

  for (const std::size_t in_f : in_fs) {
    for (const std::size_t out_f : out_fs) {
      for (std::size_t i = 0; i < in_f * out_f; ++i) {
        w64[i] = rng.uniform(-1.0, 1.0);
        w32[i] = static_cast<float>(w64[i]);
      }
      for (std::size_t i = 0; i < out_f; ++i) {
        b64[i] = rng.uniform(-1.0, 1.0);
        b32[i] = static_cast<float>(b64[i]);
      }
      for (std::size_t batch = 1; batch <= kMaxBatch; ++batch) {
        for (std::size_t i = 0; i < in_f * batch; ++i) {
          a64[i] = rng.uniform(-1.0, 1.0);
          a32[i] = static_cast<float>(a64[i]);
        }
        for (const bool relu : {false, true}) {
          SCOPED_TRACE(relu ? "relu on" : "relu off");
          scalar.f64(a64.data(), w64.data(), b64.data(), ref64.data(), in_f,
                     out_f, batch, relu);
          scalar.f32(a32.data(), w32.data(), b32.data(), ref32.data(), in_f,
                     out_f, batch, relu);
          for (Isa isa : isas) {
            const simd::PanelKernels& k = simd::panel_kernels(isa);
            // Poison the outputs: an element the kernel forgot to write
            // (e.g. a broken remainder loop) must mismatch, not luckily
            // retain a stale correct value.
            for (std::size_t i = 0; i < out_f * batch; ++i) {
              out64[i] = -777.0;
              out32[i] = -777.0f;
            }
            k.f64(a64.data(), w64.data(), b64.data(), out64.data(), in_f,
                  out_f, batch, relu);
            ASSERT_EQ(std::memcmp(out64.data(), ref64.data(),
                                  out_f * batch * sizeof(double)),
                      0)
                << "f64 not bitwise-identical to scalar: isa="
                << simd::isa_name(isa) << " in_f=" << in_f << " out_f=" << out_f
                << " batch=" << batch;
            k.f32(a32.data(), w32.data(), b32.data(), out32.data(), in_f,
                  out_f, batch, relu);
            for (std::size_t i = 0; i < out_f * batch; ++i) {
              ASSERT_LE(ulp_diff(out32[i], ref32[i]), 1u)
                  << "f32 beyond 1 ulp of scalar: isa=" << simd::isa_name(isa)
                  << " in_f=" << in_f << " out_f=" << out_f
                  << " batch=" << batch << " elem=" << i << " got=" << out32[i]
                  << " want=" << ref32[i];
            }
          }
        }
      }
    }
  }
}

/// The absolute anchor of the fused arithmetic: the sweep above compares
/// each ISA with the scalar reference, so every path reverting to two
/// roundings together would still pass it. Here w * a = 1 + 2^-(p-1) +
/// 2^-2p exactly (p = 30 at f64, 13 at f32), and bias cancels all but the
/// last term: one FMA keeps it, while a rounded product loses it and the
/// add returns 0. Batches 1..130 reach every tile, single-vector and
/// remainder path of every kernel, the scalar one included.
TEST(SimdDispatch, KernelsFuseEachMultiplyAdd) {
  constexpr std::size_t kMaxBatch = 130;
  const double w64 = 1.0 + 0x1p-30;
  const double b64 = -(1.0 + 0x1p-29);
  const float w32 = 1.0f + 0x1p-13f;
  const float b32 = -(1.0f + 0x1p-12f);
  AlignedVector<double> a64(kMaxBatch, w64), out64(kMaxBatch);
  AlignedVector<float> a32(kMaxBatch, w32), out32(kMaxBatch);
  for (Isa isa : supported_isas()) {
    const simd::PanelKernels& k = simd::panel_kernels(isa);
    for (std::size_t batch = 1; batch <= kMaxBatch; ++batch) {
      k.f64(a64.data(), &w64, &b64, out64.data(), 1, 1, batch, false);
      k.f32(a32.data(), &w32, &b32, out32.data(), 1, 1, batch, false);
      for (std::size_t j = 0; j < batch; ++j) {
        ASSERT_EQ(out64[j], 0x1p-60)
            << "f64 isa=" << simd::isa_name(isa) << " batch=" << batch
            << " col=" << j;
        ASSERT_EQ(out32[j], 0x1p-26f)
            << "f32 isa=" << simd::isa_name(isa) << " batch=" << batch
            << " col=" << j;
      }
    }
  }
}

template <typename T>
simd::DenseColumnsFn<T> kernel_of(const simd::PanelKernels& k) {
  if constexpr (std::is_same_v<T, float>) {
    return k.f32;
  } else {
    return k.f64;
  }
}

/// Every supported ISA's kernel with the ReLU flag on against the scalar
/// reference with the flag off followed by activate_columns(kRelu), byte
/// for byte, over batches 1..130 (every tile, single-vector and remainder
/// path). Features 0 and 1 have a zero weight row and a bias of -0.0 and
/// +0.0, and the inputs are negative except in every seventh column, so
/// the pre-activations hold exactly -0.0 and +0.0; every fifth column has
/// a NaN input. Random panels almost never produce -0.0, and ulp_diff
/// reads +0 and -0 as equal, so the sweep above would miss an epilogue
/// that keeps -0.0 or NaN — x86 max(0, x) does both.
template <typename T>
void expect_relu_epilogue_equals_activate_pass() {
  constexpr std::size_t kMaxBatch = 130;
  constexpr std::size_t kInF = 3;
  constexpr std::size_t kOutF = 7;
  util::Rng rng(41);
  AlignedVector<T> w(kInF * kOutF), bias(kOutF), a(kInF * kMaxBatch),
      out(kOutF * kMaxBatch);
  for (std::size_t k = 0; k < kInF; ++k) {
    for (std::size_t of = 0; of < kOutF; ++of) {
      w[k * kOutF + of] =
          of < 2 ? T(0) : static_cast<T>(rng.uniform(-1.0, 1.0));
    }
  }
  bias[0] = T(-0.0);
  bias[1] = T(0.0);
  for (std::size_t of = 2; of < kOutF; ++of) {
    bias[of] = static_cast<T>(rng.uniform(-1.0, 1.0));
  }
  const auto scalar = kernel_of<T>(simd::panel_kernels(Isa::kScalar));
  MatrixT<T> pre;
  MatrixT<T> post;
  for (std::size_t batch = 1; batch <= kMaxBatch; ++batch) {
    for (std::size_t k = 0; k < kInF; ++k) {
      for (std::size_t j = 0; j < batch; ++j) {
        const T mag = static_cast<T>(rng.uniform(0.1, 1.0));
        a[k * batch + j] =
            k == 1 && j % 5 == 4 ? std::numeric_limits<T>::quiet_NaN()
                                 : (j % 7 == 6 ? mag : -mag);
      }
    }
    pre.resize(kOutF, batch);
    scalar(a.data(), w.data(), bias.data(), pre.data().data(), kInF, kOutF,
           batch, false);
    ASSERT_EQ(pre(0, 0), T(0));
    ASSERT_TRUE(std::signbit(pre(0, 0))) << "the panel must hold -0.0";
    activate_columns(ActivationKind::kRelu, pre, post);
    for (Isa isa : supported_isas()) {
      for (std::size_t i = 0; i < kOutF * batch; ++i) out[i] = T(-777);
      kernel_of<T>(simd::panel_kernels(isa))(a.data(), w.data(), bias.data(),
                                             out.data(), kInF, kOutF, batch,
                                             true);
      ASSERT_EQ(std::memcmp(out.data(), post.data().data(),
                            kOutF * batch * sizeof(T)),
                0)
          << "fused ReLU differs from activate_columns: isa="
          << simd::isa_name(isa) << " bytes=" << sizeof(T)
          << " batch=" << batch;
    }
  }
}

TEST(SimdDispatch, ReluEpilogueEqualsActivatePassBitwise) {
  expect_relu_epilogue_equals_activate_pass<double>();
  expect_relu_epilogue_equals_activate_pass<float>();
}

/// dense_forward_columns (both Matrix and MatrixT carriers) routes through
/// the dispatcher; whatever ISA is active, the result must equal the scalar
/// kernel bitwise at f64 — the carrier-level restatement of the sweep.
TEST(SimdDispatch, DenseForwardColumnsMatchesScalarKernel) {
  util::Rng rng(7);
  const std::size_t in_f = 4, out_f = 16, batch = 97;
  Matrix act(in_f, batch), w(in_f, out_f), bias(1, out_f), out;
  for (auto& v : act.data()) v = rng.uniform(-1.0, 1.0);
  for (auto& v : w.data()) v = rng.uniform(-1.0, 1.0);
  for (auto& v : bias.data()) v = rng.uniform(-1.0, 1.0);

  dense_forward_columns(act, w, bias, out);

  std::vector<double> ref(out_f * batch);
  simd::panel_kernels(Isa::kScalar)
      .f64(act.data().data(), w.data().data(), bias.data().data(), ref.data(),
           in_f, out_f, batch, false);
  ASSERT_EQ(out.rows(), out_f);
  ASSERT_EQ(out.cols(), batch);
  EXPECT_EQ(std::memcmp(out.data().data(), ref.data(),
                        ref.size() * sizeof(double)),
            0);
}

TEST(PanelAlignment, MatrixStorageIs64ByteAligned) {
  static_assert(kPanelAlignment == 64);
  for (const std::size_t cols : {1u, 3u, 17u, 64u, 130u, 1000u}) {
    Matrix m(4, cols);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data().data()) %
                  kPanelAlignment,
              0u)
        << cols;
    MatrixT<float> mf(4, cols);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(mf.data().data()) %
                  kPanelAlignment,
              0u)
        << cols;
    MatrixT<double> md(4, cols);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(md.data().data()) %
                  kPanelAlignment,
              0u)
        << cols;
  }
}

TEST(PanelAlignment, ResizeAndWorkspaceBuffersStayAligned) {
  // Growth forces reallocation; the new block must come from the aligned
  // allocator again — this is what lets kernels assume the panel BASE is
  // 64-byte aligned forever (row starts still depend on batch).
  MatrixT<float> m;
  for (const std::size_t cols : {5u, 33u, 129u, 1024u}) {
    m.resize(16, cols);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data().data()) %
                  kPanelAlignment,
              0u)
        << cols;
  }
  ForwardWorkspaceT<double> ws;
  ws.buffer(2).resize(16, 130);
  for (std::size_t i = 0; i < ws.num_buffers(); ++i) {
    ws.buffer(i).resize(8, 64);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(ws.buffer(i).data().data()) %
                  kPanelAlignment,
              0u)
        << i;
  }
  AlignedVector<double> v;
  for (int i = 0; i < 1000; ++i) {
    v.push_back(1.0);
    if ((i & (i - 1)) == 0) {  // around growth points
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kPanelAlignment,
                0u)
          << i;
    }
  }
}

}  // namespace
}  // namespace socpinn::nn
