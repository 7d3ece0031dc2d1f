#pragma once
/// \file thread_pool.hpp
/// Minimal persistent worker pool for sharded fleet evaluation.
///
/// The pool exists to run the same callable over disjoint contiguous index
/// ranges ("shards") of a fleet. Shard boundaries depend only on (n, size()),
/// never on timing, and every row of a batched forward is computed
/// independently, so results are bitwise identical for any thread count.
/// Jobs are passed as a function pointer plus context (not std::function),
/// so dispatching a tick performs no heap allocation.

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/annotations.hpp"
#include "util/sync.hpp"

namespace socpinn::serve {

/// Contiguous shard of [0, n): the boundary contract every serve engine
/// (and a future multi-process split) shares.
struct ShardRange {
  std::size_t begin;
  std::size_t end;
};

/// Shard `shard` of [0, n) split `shards` ways — exactly
/// [floor(n*shard/shards), floor(n*(shard+1)/shards)), the boundaries the
/// pool has always used, but computed without the n*(shard+1) product that
/// wraps std::size_t for n > SIZE_MAX/shards (a fleet-sized n on a wide
/// pool would silently hand shards inverted ranges). Dividing first,
/// n = q*shards + r gives floor(n*s/shards) = q*s + floor(r*s/shards),
/// which only needs r*s < SIZE_MAX, i.e. shards below ~2^32 — far beyond
/// any real pool (tests/serve/test_thread_pool.cpp pins it against the
/// 128-bit product on the SIZE_MAX edge cases).
[[nodiscard]] inline ShardRange shard_range(std::size_t n, std::size_t shard,
                                            std::size_t shards) {
  const std::size_t q = n / shards;
  const std::size_t r = n % shards;
  const auto bound = [q, r, shards](std::size_t s) {
    return q * s + r * s / shards;
  };
  return {bound(shard), bound(shard + 1)};
}

class ThreadPool {
 public:
  /// A shard job: fn(ctx, shard, begin, end) over the half-open range
  /// [begin, end). Jobs MAY throw: the first exception of a dispatch is
  /// captured and rethrown by parallel_for on the calling thread (a
  /// throwing job used to std::terminate the whole process from the
  /// worker thread). See parallel_for for the exact contract.
  using Job = void (*)(void* ctx, std::size_t shard, std::size_t begin,
                       std::size_t end);

  /// Spawns `threads` persistent workers (0 = hardware_concurrency, with a
  /// floor of 1). The caller of parallel_for acts as one of the shards, so
  /// a pool of size T spawns T-1 OS threads.
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  /// Number of shards parallel_for splits into.
  [[nodiscard]] std::size_t size() const { return workers_.size() + 1; }

  /// Runs job(ctx, shard, begin, end) over [0, n) split into size()
  /// contiguous shards and blocks until all shards finish. Shard s covers
  /// [s*n/size(), (s+1)*n/size()); empty shards are skipped. The calling
  /// thread executes shard 0. Only one parallel_for may be in flight at a
  /// time (the blocking call enforces this for a single owner).
  ///
  /// Exceptions: if any shard's job throws, the FIRST captured exception
  /// of the dispatch is rethrown here, on the calling thread, AFTER every
  /// shard has finished (workers never die, the pool stays reusable, and
  /// no shard is left running into the caller's unwinding). "First" means
  /// first captured, not lowest shard index — concurrent failures race
  /// and exactly one wins; the rest are dropped. Shards other than the
  /// throwing one still run to completion, so a partial mutation of
  /// caller state is possible — the engines' jobs only write results per
  /// cell, where partial completion is benign.
  void parallel_for(std::size_t n, Job job, void* ctx) SOCPINN_EXCLUDES(mu_);

  /// Convenience adapter for callables: f(shard, begin, end). Works for
  /// const callables too (the void* round-trip restores constness).
  template <typename F>
  void parallel_for(std::size_t n, F&& f) {
    using Callable = std::remove_reference_t<F>;
    parallel_for(
        n,
        [](void* ctx, std::size_t shard, std::size_t begin, std::size_t end) {
          (*static_cast<Callable*>(ctx))(shard, begin, end);
        },
        const_cast<void*>(static_cast<const void*>(std::addressof(f))));
  }

 private:
  void worker_loop(std::size_t worker_index) SOCPINN_EXCLUDES(mu_);

  /// Runs one shard's job, capturing a thrown exception into
  /// first_error_ (first capture of the dispatch wins).
  void run_shard(Job job, void* ctx, std::size_t shard, std::size_t begin,
                 std::size_t end) noexcept SOCPINN_EXCLUDES(mu_);

  std::vector<std::thread> workers_;
  /// Guards every dispatch field below. The SOCPINN_GUARDED_BY contracts
  /// make clang's -Wthread-safety reject any unlocked access on ANY path
  /// (see util/annotations.hpp); under GCC they compile to nothing.
  util::Mutex mu_;
  util::CondVar cv_work_;
  util::CondVar cv_done_;
  Job job_ SOCPINN_GUARDED_BY(mu_) = nullptr;
  void* job_ctx_ SOCPINN_GUARDED_BY(mu_) = nullptr;
  std::size_t job_n_ SOCPINN_GUARDED_BY(mu_) = 0;
  /// First exception thrown by any shard of the current dispatch; moved
  /// out and rethrown by parallel_for once every shard has finished.
  std::exception_ptr first_error_ SOCPINN_GUARDED_BY(mu_);
  /// Bumped per parallel_for to wake workers.
  std::uint64_t generation_ SOCPINN_GUARDED_BY(mu_) = 0;
  /// Workers still running the current job.
  std::size_t pending_ SOCPINN_GUARDED_BY(mu_) = 0;
  bool stop_ SOCPINN_GUARDED_BY(mu_) = false;
};

}  // namespace socpinn::serve
