#pragma once
/// \file bench_support.hpp
/// Shared fixtures for the benchmark binaries: the counting global
/// operator new backing every BENCH_*.json steady-state allocation number
/// and the --smoke flag stripper. The net/trace/input fixtures are the
/// tests' gtest-free ones (tests/support/fitted_net.hpp, on the bench
/// include path), so benches and tests exercise identical workloads.
///
/// NOTE: including this header replaces the global allocation operators for
/// the whole binary. Each bench executable is a single translation unit, so
/// the definitions appear exactly once per binary; do not include this from
/// a second TU of the same target.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "core/two_branch_net.hpp"
#include "support/fitted_net.hpp"

namespace socpinn::benchsupport {
inline std::atomic<std::size_t> g_alloc_count{0};

/// Allocations observed so far in this binary.
inline std::size_t alloc_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

/// std::free behind a call the optimizer does not inline: every operator
/// delete below is one. Inlined down to a bare free(), GCC pairs it with
/// the operator new call the pointer came from and reports
/// -Wmismatched-new-delete.
[[gnu::noinline]] inline void release(void* p) noexcept { std::free(p); }
}  // namespace socpinn::benchsupport

void* operator new(std::size_t size) {
  socpinn::benchsupport::g_alloc_count.fetch_add(1,
                                                 std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept {
  socpinn::benchsupport::release(p);
}
void operator delete[](void* p) noexcept {
  socpinn::benchsupport::release(p);
}
void operator delete(void* p, std::size_t) noexcept {
  socpinn::benchsupport::release(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  socpinn::benchsupport::release(p);
}

// Over-aligned overloads: nn::AlignedAllocator routes every panel and
// workspace buffer through operator new(size, align_val_t), which must hit
// the same counter or the steady-state allocation numbers would silently
// exclude exactly the buffers the benches are about.
void* operator new(std::size_t size, std::align_val_t align) {
  socpinn::benchsupport::g_alloc_count.fetch_add(1,
                                                 std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p, std::align_val_t) noexcept {
  socpinn::benchsupport::release(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  socpinn::benchsupport::release(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  socpinn::benchsupport::release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  socpinn::benchsupport::release(p);
}

namespace socpinn::benchsupport {

using socpinn::testing::random_sensors;
using socpinn::testing::random_workload;
using socpinn::testing::synthetic_trace;

/// The tests' fitted net (deterministic weights, hand-set scaler moments)
/// as a shared singleton — benchmarks measure the inference path, not
/// training quality.
inline core::TwoBranchNet& shared_net() {
  static core::TwoBranchNet net = testing::make_fitted_net(1);
  return net;
}

/// Removes a leading/embedded "--smoke" from argv. Returns true when it
/// was present; `argv_rest` then holds the remaining arguments (suitable
/// for benchmark::Initialize) and `argc` is updated.
inline bool strip_smoke_flag(int& argc, char** argv,
                             std::vector<char*>& argv_rest) {
  bool smoke = false;
  argv_rest.clear();
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      argv_rest.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(argv_rest.size());
  return smoke;
}

/// Runs the Google Benchmark sweep. In smoke mode a representative subset
/// (`smoke_filter`, a --benchmark_filter regex) still EXECUTES with a tiny
/// min_time, so every BM_* body stays exercised in CI instead of merely
/// compiling.
inline void run_benchmarks(int argc, std::vector<char*>& argv_rest,
                           bool smoke, const char* smoke_filter) {
  std::string filter, min_time;
  std::vector<char*> args(argv_rest);
  if (smoke) {
    filter = std::string("--benchmark_filter=") + smoke_filter;
    min_time = "--benchmark_min_time=0.02s";
    args.push_back(filter.data());
    args.push_back(min_time.data());
    argc += 2;
  }
  benchmark::Initialize(&argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
}

}  // namespace socpinn::benchsupport
