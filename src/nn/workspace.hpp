#pragma once
/// \file workspace.hpp
/// Preallocated activation buffers for allocation-free inference.
///
/// Every buffer is grown on first use and then reused: MatrixT::resize
/// keeps capacity, so after a warm-up forward at a given batch size the
/// inference path performs zero heap allocations. A workspace is owned by
/// exactly one caller (typically one thread or one shard); the networks
/// and snapshots themselves stay const and shareable.

#include <vector>

#include "nn/matrix.hpp"

namespace socpinn::nn {

/// Scratch buffers for one inference pass: Mlp::infer_columns takes one
/// activation panel per layer, MlpSnapshotT<T>::infer_columns alternates
/// between buffers 0 and 1 whatever the depth. Sharing one workspace
/// between the two is safe; it grows to the larger need.
template <typename T>
class ForwardWorkspaceT {
 public:
  /// Grows the buffer list to at least n entries. Call before holding
  /// references from buffer(): growing the list reallocates it and would
  /// invalidate them.
  void ensure(std::size_t n) {
    if (n > buffers_.size()) buffers_.resize(n);
  }

  /// The i-th layer-output buffer, created empty on first access.
  [[nodiscard]] MatrixT<T>& buffer(std::size_t i) {
    ensure(i + 1);
    return buffers_[i];
  }

  [[nodiscard]] std::size_t num_buffers() const { return buffers_.size(); }

 private:
  std::vector<MatrixT<T>> buffers_;
};

/// The f64 workspace of Mlp::infer / Mlp::infer_columns.
using ForwardWorkspace = ForwardWorkspaceT<double>;

}  // namespace socpinn::nn
