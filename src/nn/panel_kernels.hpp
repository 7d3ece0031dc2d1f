#pragma once
/// \file panel_kernels.hpp
/// Scalar-templated feature-major dense kernel — the portable fallback and
/// the parity REFERENCE of the runtime-ISA dispatch (nn/panel_dispatch.hpp)
/// behind nn::dense_forward_columns<T>: at double every f64 inference of
/// the library and the serve engines, at float the reduced-precision serve
/// backend. The template defines the panel arithmetic: per element, bias
/// first then ascending-k FUSED multiply-adds (simd::mul_add, one
/// std::fma each; the library compiles with -ffp-contract=off, so nothing
/// else fuses), and every explicit SIMD instantiation
/// (panel_kernels_simd.hpp) reproduces exactly that sequence lane-by-lane
/// with vector FMAs — bitwise on every host, since an FMA is correctly
/// rounded. At float the same tiles pack twice the SIMD lanes per
/// register. With the `relu` flag set, every path stores simd::relu(acc)
/// instead of acc (the tile epilogue), so a dense layer and the ReLU after
/// it run as one pass with exactly the results of activate_columns(kRelu)
/// over the unfused output.

#include <cstddef>

#include "nn/simd.hpp"
#include "util/annotations.hpp"

namespace socpinn::nn::detail {

/// Register-blocked tile of the feature-major forward: kOut output features
/// x kBatch batch columns accumulate entirely in registers, with one
/// activation-row load shared by all kOut FMA chains per k step. The double
/// tile shape (4 x 32 = 16 512-bit accumulators) is chosen for the
/// AVX-512/AVX2 register file; float tiles double kBatch to fill the same
/// register bytes. Per element the order stays bias-then-ascending-k, and
/// kRelu applies the epilogue at the store.
template <typename T, int kOut, int kBatch, bool kRelu>
SOCPINN_HOT inline void dense_columns_tile(const T* __restrict a, const T* __restrict w,
                               const T* __restrict bias, T* __restrict out,
                               std::size_t in_f, std::size_t out_f,
                               std::size_t batch, std::size_t of,
                               std::size_t jt) {
  T acc[kOut][kBatch];
  for (int r = 0; r < kOut; ++r) {
    const T b0 = bias[of + r];
    for (int j = 0; j < kBatch; ++j) acc[r][j] = b0;
  }
  for (std::size_t k = 0; k < in_f; ++k) {
    const T* __restrict a_row = a + k * batch + jt;
    for (int r = 0; r < kOut; ++r) {
      const T wk = w[k * out_f + of + r];
      for (int j = 0; j < kBatch; ++j) {
        acc[r][j] = simd::mul_add(wk, a_row[j], acc[r][j]);
      }
    }
  }
  for (int r = 0; r < kOut; ++r) {
    T* __restrict o = out + (of + r) * batch + jt;
    for (int j = 0; j < kBatch; ++j) {
      o[j] = kRelu ? simd::relu(acc[r][j]) : acc[r][j];
    }
  }
}

/// dense_columns_kernel with the epilogue fixed at compile time; a
/// function of its own for the reason dense_columns_pass_vec gives.
template <typename T, bool kRelu>
SOCPINN_HOT __attribute__((noinline, noclone)) void dense_columns_pass(
    const T* __restrict a, const T* __restrict w, const T* __restrict bias,
    T* __restrict out, std::size_t in_f, std::size_t out_f,
    std::size_t batch) {
  constexpr int kOut = 4;
  constexpr int kBatch = static_cast<int>(32 * sizeof(double) / sizeof(T));
  std::size_t jt = 0;
  for (; jt + kBatch <= batch; jt += kBatch) {
    std::size_t of = 0;
    for (; of + kOut <= out_f; of += kOut) {
      dense_columns_tile<T, kOut, kBatch, kRelu>(a, w, bias, out, in_f, out_f,
                                                 batch, of, jt);
    }
    for (; of < out_f; ++of) {
      dense_columns_tile<T, 1, kBatch, kRelu>(a, w, bias, out, in_f, out_f,
                                              batch, of, jt);
    }
  }
  if constexpr (sizeof(T) < sizeof(double)) {
    // Narrow scalars widen the main tile; a half-width pass keeps batches
    // between the two tile sizes (e.g. 32..63 floats) vectorized instead of
    // falling straight to the scalar remainder.
    for (; jt + kBatch / 2 <= batch; jt += kBatch / 2) {
      std::size_t of = 0;
      for (; of + kOut <= out_f; of += kOut) {
        dense_columns_tile<T, kOut, kBatch / 2, kRelu>(a, w, bias, out, in_f,
                                                       out_f, batch, of, jt);
      }
      for (; of < out_f; ++of) {
        dense_columns_tile<T, 1, kBatch / 2, kRelu>(a, w, bias, out, in_f,
                                                    out_f, batch, of, jt);
      }
    }
  }
  // Remainder columns, one at a time: the bias, then one axpy over the
  // outputs per ascending k — per element the tiles' order — then the
  // epilogue. The out_f updates of one k are independent (contiguous at
  // batch 1), so a batch-of-1 forward vectorizes over the outputs rather
  // than running a latency-bound dot product per output.
  for (; jt < batch; ++jt) {
    for (std::size_t of = 0; of < out_f; ++of) out[of * batch + jt] = bias[of];
    for (std::size_t k = 0; k < in_f; ++k) {
      const T ak = a[k * batch + jt];
      const T* __restrict w_row = w + k * out_f;
      for (std::size_t of = 0; of < out_f; ++of) {
        T& o = out[of * batch + jt];
        o = simd::mul_add(w_row[of], ak, o);
      }
    }
    if constexpr (kRelu) {
      for (std::size_t of = 0; of < out_f; ++of) {
        T& o = out[of * batch + jt];
        o = simd::relu(o);
      }
    }
  }
}

/// out = W^T * activations + bias over raw feature-major panels, then
/// ReLU when `relu` is set: `a` is (in_f x batch) row-major (batch
/// unit-stride), `w` (in_f x out_f) row-major, `bias` out_f, `out`
/// (out_f x batch). `noclone` keeps GCC from constant-propagating the tiny
/// layer widths into specialized clones (whose interleaving vectorization
/// is dramatically slower for these shapes than the plain saxpy form).
template <typename T>
SOCPINN_HOT __attribute__((noinline, noclone)) void dense_columns_kernel(
    const T* __restrict a, const T* __restrict w, const T* __restrict bias,
    T* __restrict out, std::size_t in_f, std::size_t out_f, std::size_t batch,
    bool relu) {
  if (relu) {
    dense_columns_pass<T, true>(a, w, bias, out, in_f, out_f, batch);
  } else {
    dense_columns_pass<T, false>(a, w, bias, out, in_f, out_f, batch);
  }
}

}  // namespace socpinn::nn::detail
