#include "serve/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace socpinn::serve {
namespace {

TEST(ShardRange, KeepsTheHistoricalFloorBoundaries) {
  // Same boundaries as the original n*shard/shards formula: 103 split 4
  // ways is 25/26/26/26 with floor rounding, i.e. 0,25,51,77,103.
  const std::size_t expect[5] = {0, 25, 51, 77, 103};
  for (std::size_t s = 0; s < 4; ++s) {
    const ShardRange r = shard_range(103, s, 4);
    EXPECT_EQ(r.begin, expect[s]) << "shard " << s;
    EXPECT_EQ(r.end, expect[s + 1]) << "shard " << s;
  }
}

TEST(ShardRange, SurvivesSizesNearSizeMax) {
  // Regression: the old formula computed n * (shard + 1), which wraps
  // std::size_t for n > SIZE_MAX / shards and handed shards inverted
  // (begin > end) ranges. The rewrite must keep every shard well-formed,
  // contiguous, and exactly covering [0, n) at any magnitude.
  const std::size_t huge[] = {
      std::numeric_limits<std::size_t>::max(),
      std::numeric_limits<std::size_t>::max() - 5,
      std::numeric_limits<std::size_t>::max() / 2 + 3,
  };
  for (const std::size_t n : huge) {
    for (const std::size_t shards : {std::size_t{2}, std::size_t{7},
                                     std::size_t{64}}) {
      std::size_t expect_begin = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        const ShardRange r = shard_range(n, s, shards);
        ASSERT_EQ(r.begin, expect_begin) << "n " << n << " shard " << s;
        ASSERT_LE(r.begin, r.end) << "n " << n << " shard " << s;
        // Every shard gets within one element of n/shards — the wrapped
        // formula instead produced wild range sizes.
        ASSERT_LE(r.end - r.begin, n / shards + 1)
            << "n " << n << " shard " << s;
        expect_begin = r.end;
      }
      ASSERT_EQ(expect_begin, n) << "n " << n << " shards " << shards;
    }
  }
}

TEST(ShardRange, DivideFirstFallbackMatchesWidePathOnBoundaryCases) {
  // shard_range divides first so n * (shard + 1) cannot wrap; pin it equal
  // to the exact 128-bit product floor(n * s / shards) on exactly the
  // boundary cases the overflow fix exists for.
#if defined(__SIZEOF_INT128__)
  using Wide = unsigned __int128;
  const auto wide_bound = [](std::size_t n, std::size_t s,
                             std::size_t shards) {
    return static_cast<std::size_t>(Wide(n) * s / shards);
  };
  const std::size_t max = std::numeric_limits<std::size_t>::max();
  const std::size_t ns[] = {0,       1,      2,         103,
                            1000,    4096,   max / 2,   max / 2 + 3,
                            max - 5, max - 1, max};
  const std::size_t shard_counts[] = {1, 2, 3, 7, 64, 1024, 65536};
  for (const std::size_t n : ns) {
    for (const std::size_t shards : shard_counts) {
      for (std::size_t s = 0; s < shards; s += (shards > 8 ? shards / 8 : 1)) {
        const ShardRange got = shard_range(n, s, shards);
        ASSERT_EQ(got.begin, wide_bound(n, s, shards))
            << "n " << n << " shard " << s << " of " << shards;
        ASSERT_EQ(got.end, wide_bound(n, s + 1, shards))
            << "n " << n << " shard " << s << " of " << shards;
      }
      // The last shard's end must close the cover exactly.
      const ShardRange last = shard_range(n, shards - 1, shards);
      ASSERT_EQ(last.end, n) << "n " << n << " shards " << shards;
    }
  }
#else
  GTEST_SKIP() << "no unsigned __int128 to compute the reference product";
#endif
}

TEST(ThreadPool, SizeAccountsForCallerThread) {
  EXPECT_EQ(ThreadPool(1).size(), 1u);
  EXPECT_EQ(ThreadPool(4).size(), 4u);
  EXPECT_GE(ThreadPool(0).size(), 1u);  // hardware_concurrency fallback
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 4u, 7u}) {
    ThreadPool pool(threads);
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::size_t, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPool, ShardsAreContiguousAndOrdered) {
  ThreadPool pool(4);
  std::vector<std::pair<std::size_t, std::size_t>> ranges(4, {0, 0});
  pool.parallel_for(103,
                    [&](std::size_t shard, std::size_t begin, std::size_t end) {
                      ranges[shard] = {begin, end};
                    });
  std::size_t expect_begin = 0;
  for (const auto& [begin, end] : ranges) {
    EXPECT_EQ(begin, expect_begin);
    EXPECT_LE(begin, end);
    expect_begin = end;
  }
  EXPECT_EQ(expect_begin, 103u);
}

TEST(ThreadPool, HandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t, std::size_t, std::size_t) {
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 0);

  std::atomic<int> sum{0};
  pool.parallel_for(2, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) sum.fetch_add(static_cast<int>(i) + 1);
  });
  EXPECT_EQ(sum.load(), 3);  // 1 + 2: both indices visited despite n < size()
}

TEST(ThreadPool, ReusableAcrossManyDispatches) {
  ThreadPool pool(3);
  std::atomic<long> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(64, [&](std::size_t, std::size_t begin, std::size_t end) {
      total.fetch_add(static_cast<long>(end - begin));
    });
  }
  EXPECT_EQ(total.load(), 50l * 64l);
}

TEST(ThreadPool, RethrowsWorkerShardExceptionOnCallerThread) {
  // A throwing job used to escape the worker thread and std::terminate
  // the process; now the first exception of the dispatch is rethrown by
  // parallel_for on the calling thread.
  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    std::atomic<std::size_t> visited{0};
    try {
      pool.parallel_for(100,
                        [&](std::size_t shard, std::size_t begin,
                            std::size_t end) {
                          visited.fetch_add(end - begin);
                          if (shard == 2) {
                            throw std::runtime_error("shard 2 failed");
                          }
                        });
      FAIL() << "expected the shard exception to be rethrown";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard 2 failed");
    }
    // Every shard still ran to completion before the rethrow: the pool
    // never abandons shards mid-dispatch.
    EXPECT_EQ(visited.load(), 100u) << "round " << round;
  }
}

TEST(ThreadPool, RethrowsCallerShardExceptionToo) {
  // Shard 0 runs on the calling thread; its exception must take the same
  // capture-then-rethrow route so the dispatch still waits for workers.
  ThreadPool pool(3);
  std::atomic<std::size_t> visited{0};
  EXPECT_THROW(
      pool.parallel_for(90,
                        [&](std::size_t shard, std::size_t begin,
                            std::size_t end) {
                          visited.fetch_add(end - begin);
                          if (shard == 0) throw std::logic_error("caller");
                        }),
      std::logic_error);
  EXPECT_EQ(visited.load(), 90u);
}

TEST(ThreadPool, SingleThreadPoolPropagatesDirectly) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(
                   10, [&](std::size_t, std::size_t, std::size_t) {
                     throw std::invalid_argument("solo");
                   }),
               std::invalid_argument);
}

TEST(ThreadPool, PoolStaysUsableAfterAnExceptionalDispatch) {
  // The rethrow happens after every worker idles again, so the very next
  // parallel_for must behave exactly like on a fresh pool — including
  // when several shards throw concurrently (exactly one exception wins).
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t, std::size_t, std::size_t) {
                                   throw std::runtime_error("everybody");
                                 }),
               std::runtime_error);
  std::atomic<long> total{0};
  for (int round = 0; round < 20; ++round) {
    pool.parallel_for(64, [&](std::size_t, std::size_t begin,
                              std::size_t end) {
      total.fetch_add(static_cast<long>(end - begin));
    });
  }
  EXPECT_EQ(total.load(), 20l * 64l);
}

}  // namespace
}  // namespace socpinn::serve
