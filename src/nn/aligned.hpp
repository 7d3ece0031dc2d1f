#pragma once
/// \file aligned.hpp
/// 64-byte-aligned storage for panel and workspace buffers.
///
/// The panel kernels vectorize across batch columns with unaligned loads
/// (row strides are batch-sized, so interior rows cannot be aligned
/// anyway), but a 64-byte base puts every buffer on a cache-line — and
/// thus AVX-512-register — boundary: first-row loads and stores hit the
/// aligned fast path, no panel straddles a line it doesn't have to, and
/// the guarantee holds for the autovectorized scalar fallback as much as
/// for the explicit SIMD kernels. std::vector's default allocator only
/// guarantees alignof(std::max_align_t) (16 on common ABIs), so MatrixT
/// (nn::Matrix at double) routes its storage through this allocator
/// instead.
/// tests/nn/test_simd_dispatch.cpp asserts the contract on live buffers.

#include <cstddef>
#include <new>
#include <vector>

namespace socpinn::nn {

/// Alignment of every MatrixT data() base pointer: one cache line,
/// which is also the widest vector register (AVX-512) this repo targets.
inline constexpr std::size_t kPanelAlignment = 64;
static_assert((kPanelAlignment & (kPanelAlignment - 1)) == 0 &&
                  kPanelAlignment >= 64,
              "panel storage must be at least 64-byte (cache-line) aligned");

/// Minimal std::allocator drop-in over C++17 aligned operator new. Stateless:
/// all instances are interchangeable.
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t{kPanelAlignment}));
  }

  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kPanelAlignment});
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U>;
  };

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
};

/// The storage type of MatrixT.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace socpinn::nn
