#pragma once
/// \file workspace.hpp
/// Preallocated activation buffers for allocation-free inference.
///
/// Every buffer is grown on first use and then reused: Matrix::resize keeps
/// capacity, so after a warm-up forward at a given batch size the inference
/// path performs zero heap allocations. A workspace is owned by exactly one
/// caller (typically one thread); the networks themselves stay const and
/// shareable.

#include <vector>

#include "nn/matrix.hpp"

namespace socpinn::nn {

/// Scratch buffers for one Mlp inference pass: one activation matrix per
/// layer.
class ForwardWorkspace {
 public:
  /// Grows the buffer list to at least n entries. Call before holding
  /// references from buffer(): growing the list reallocates it and would
  /// invalidate them.
  void ensure(std::size_t n) {
    if (n > buffers_.size()) buffers_.resize(n);
  }

  /// The i-th layer-output buffer, created empty on first access.
  [[nodiscard]] Matrix& buffer(std::size_t i) {
    ensure(i + 1);
    return buffers_[i];
  }

  [[nodiscard]] std::size_t num_buffers() const { return buffers_.size(); }

 private:
  std::vector<Matrix> buffers_;
};

}  // namespace socpinn::nn
