#pragma once
/// \file panel_kernels_simd.hpp
/// The explicitly vectorized feature-major dense kernel, written once over
/// the simd::Vec lane abstraction and instantiated per ISA by the
/// panel_kernels_<isa>.cpp translation units (each compiled with that
/// ISA's flags). Vectorization is VERTICAL across batch columns — batch is
/// the unit-stride axis of the feature-major layout and every column is an
/// independent accumulator chain — so each output element still computes
/// bias first, then ascending-k fused multiply-adds (simd::mul_add), in
/// exactly the scalar template's order, and with the `relu` flag set each
/// path stores simd::relu of the result, as the scalar template does.
/// Column tiling therefore never changes a single element's rounding
/// sequence: the f64 instantiations are bitwise identical to
/// detail::dense_columns_kernel<double> at EVERY batch size (main tile,
/// single-vector pass, scalar remainder alike), and the f32 ones to its
/// float instantiation. tests/nn/test_simd_dispatch.cpp sweeps batches
/// 1..130 with the flag off and on to pin this.

#include <cstddef>

#include "nn/panel_columns.hpp"
#include "nn/simd.hpp"
#include "util/annotations.hpp"

namespace socpinn::nn::detail {

/// Register tile: kOut output features x kVecs vectors of V::kWidth batch
/// columns, accumulated entirely in registers with one shared activation
/// load per (k, vector) and one weight broadcast per (k, row) — the
/// explicit image of the scalar template's dense_columns_tile. Every
/// fixed-trip r / c loop is unrolled in full: GCC 12 otherwise keeps `acc`
/// as a stack array and copies the bias vectors and the accumulators
/// through it around the k-loop. Unrolled, acc indexes with constants
/// only and lives in registers from the bias load to the store.
template <typename V, int kOut, int kVecs, bool kRelu>
SOCPINN_HOT inline void dense_columns_tile_vec(
    const typename V::Scalar* __restrict a,
    const typename V::Scalar* __restrict w,
    const typename V::Scalar* __restrict bias,
    typename V::Scalar* __restrict out, std::size_t in_f, std::size_t out_f,
    std::size_t batch, std::size_t of, std::size_t jt) {
  constexpr int kW = V::kWidth;
  V acc[kOut][kVecs];
#pragma GCC unroll 16
  for (int r = 0; r < kOut; ++r) {
    const V b0 = V::broadcast(bias[of + r]);
#pragma GCC unroll 16
    for (int c = 0; c < kVecs; ++c) acc[r][c] = b0;
  }
  for (std::size_t k = 0; k < in_f; ++k) {
    const typename V::Scalar* __restrict a_row = a + k * batch + jt;
    V av[kVecs];
#pragma GCC unroll 16
    for (int c = 0; c < kVecs; ++c) av[c] = V::load(a_row + c * kW);
#pragma GCC unroll 16
    for (int r = 0; r < kOut; ++r) {
      const V wk = V::broadcast(w[k * out_f + of + r]);
#pragma GCC unroll 16
      for (int c = 0; c < kVecs; ++c) acc[r][c] = mul_add(wk, av[c], acc[r][c]);
    }
  }
#pragma GCC unroll 16
  for (int r = 0; r < kOut; ++r) {
    typename V::Scalar* __restrict o = out + (of + r) * batch + jt;
#pragma GCC unroll 16
    for (int c = 0; c < kVecs; ++c) {
      (kRelu ? relu(acc[r][c]) : acc[r][c]).store(o + c * kW);
    }
  }
}

/// dense_columns_kernel_vec with the epilogue fixed at compile time.
/// Batch decomposition: full kVecs*W tiles, then single-vector columns,
/// then a scalar remainder identical to the scalar template's. noinline:
/// inlined side by side into the kernel, the two passes share one register
/// budget, and GCC 12 then keeps the single-vector pass's k counter on the
/// stack, a store-to-load chain through every iteration.
template <typename V, bool kRelu>
SOCPINN_HOT __attribute__((noinline)) void dense_columns_pass_vec(
    const typename V::Scalar* __restrict a,
    const typename V::Scalar* __restrict w,
    const typename V::Scalar* __restrict bias,
    typename V::Scalar* __restrict out, std::size_t in_f, std::size_t out_f,
    std::size_t batch) {
  using T = typename V::Scalar;
  constexpr int kW = V::kWidth;
  constexpr int kOut = 4;
  constexpr int kVecs = V::kTileVecs;
  // serve::EngineCore stages kColumnsTile-column tiles, so every full
  // tile runs on the register-tile pass alone: a tile boundary never
  // pushes real columns into the single-vector or scalar remainders. The
  // tile is also a whole number of kColumnsMinBatch pads, the engines'
  // other panel width.
  static_assert(kColumnsTile % static_cast<std::size_t>(kVecs * kW) == 0,
                "kColumnsTile must be a whole number of register tiles");
  static_assert(kColumnsTile % kColumnsMinBatch == 0,
                "kColumnsTile must be a multiple of kColumnsMinBatch");
  std::size_t jt = 0;
  for (; jt + kVecs * kW <= batch; jt += kVecs * kW) {
    std::size_t of = 0;
    for (; of + kOut <= out_f; of += kOut) {
      dense_columns_tile_vec<V, kOut, kVecs, kRelu>(a, w, bias, out, in_f,
                                                    out_f, batch, of, jt);
    }
    for (; of < out_f; ++of) {
      dense_columns_tile_vec<V, 1, kVecs, kRelu>(a, w, bias, out, in_f, out_f,
                                                 batch, of, jt);
    }
  }
  // Single-vector pass keeps batches between one vector and a full tile
  // vectorized (the analogue of the scalar template's half-width pass).
  for (; jt + kW <= batch; jt += kW) {
    std::size_t of = 0;
    for (; of + kOut <= out_f; of += kOut) {
      dense_columns_tile_vec<V, kOut, 1, kRelu>(a, w, bias, out, in_f, out_f,
                                                batch, of, jt);
    }
    for (; of < out_f; ++of) {
      dense_columns_tile_vec<V, 1, 1, kRelu>(a, w, bias, out, in_f, out_f,
                                             batch, of, jt);
    }
  }
  // Remainder columns, one at a time — the scalar template's exact tail
  // (bias, then one fused axpy over the outputs per ascending k, then the
  // epilogue; this TU's flags turn each scalar mul_add into one FMA
  // instruction). A copy rather than a shared inline template: the same
  // symbol in every per-ISA TU would be folded by the linker into one
  // ISA's code.
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
/// ReLU when `relu` is set — same signature and semantics as the scalar
/// dense_columns_kernel, vectorized at V.
template <typename V>
SOCPINN_HOT void dense_columns_kernel_vec(const typename V::Scalar* __restrict a,
                              const typename V::Scalar* __restrict w,
                              const typename V::Scalar* __restrict bias,
                              typename V::Scalar* __restrict out,
                              std::size_t in_f, std::size_t out_f,
                              std::size_t batch, bool relu) {
  if (relu) {
    dense_columns_pass_vec<V, true>(a, w, bias, out, in_f, out_f, batch);
  } else {
    dense_columns_pass_vec<V, false>(a, w, bias, out, in_f, out_f, batch);
  }
}

}  // namespace socpinn::nn::detail
