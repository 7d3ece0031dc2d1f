#pragma once
/// \file serialize.hpp
/// Text-based (de)serialization for MLPs and scalers. A human-inspectable
/// format was chosen over binary: model files are tiny (the paper's full
/// network is 2,322 parameters) and diffable artifacts simplify debugging
/// and regression testing.

#include <iosfwd>
#include <string>

#include "nn/mlp.hpp"
#include "nn/scaler.hpp"

namespace socpinn::nn {

/// Writes an MLP to the stream. Supports Dense and Activation layers, the
/// only kinds the paper's branches use; throws std::runtime_error for any
/// other layer type.
void save_mlp(std::ostream& out, const Mlp& net);

/// Reads an MLP written by save_mlp. Throws std::runtime_error on parse
/// errors or version mismatch.
[[nodiscard]] Mlp load_mlp(std::istream& in);

/// Scaler round-trip. load_scaler throws std::runtime_error on any
/// malformed scaler: a bad header, truncated moments, no features, or a
/// moment StandardScaler::from_moments refuses (non-finite mean, std not
/// finite and > 0).
void save_scaler(std::ostream& out, const StandardScaler& scaler);
[[nodiscard]] StandardScaler load_scaler(std::istream& in);

/// File-path conveniences.
void save_mlp_file(const std::string& path, const Mlp& net);
[[nodiscard]] Mlp load_mlp_file(const std::string& path);

}  // namespace socpinn::nn
