#pragma once
/// \file panel_columns.hpp
/// The column widths of the feature-major panel path. Dependency-free, so
/// the per-ISA kernel TUs (each compiled with its own ISA flags) can check
/// their register tiles against these widths at compile time without
/// pulling the layer stack into a TU that must stay isolated.

#include <cstddef>

namespace socpinn::nn {

/// Pad width of the serve engines: they stage every panel feature-major
/// and zero-pad a batch thinner than this up to it, so a thin shard or
/// tail still runs whole register tiles. Per-column results are
/// independent, so padding never changes a real column. The accepted
/// cost is that batch-of-1 callers (core::rollout_cascade /
/// rollout_closed_loop) and fleets with fewer than this many cells per
/// shard compute a full padded panel per step.
inline constexpr std::size_t kColumnsMinBatch = 32;

/// Column tile of the serve engines' forwards: serve::EngineCore stages,
/// runs and writes back a shard's batch this many columns at a time, so
/// every per-layer activation panel stays L1-resident however wide the
/// shard (at f64 the widest pass, the 16 -> 32 dense layer with its ReLU
/// fused, reads 8 KiB and writes 16 KiB). 64 is the smallest width that
/// is a whole register tile on every ISA (AVX-512 f32: 4 vectors x 16
/// lanes); every kernel asserts at compile time that its tile divides it,
/// so a tile boundary never pushes real columns into a kernel's remainder
/// passes. Per-column independence keeps results bitwise identical to one
/// full-width panel.
inline constexpr std::size_t kColumnsTile = 64;

}  // namespace socpinn::nn
