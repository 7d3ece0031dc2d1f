#pragma once
// Fixture: seeded violations of the single-writer seqlock protocol —
// each line tagged EXPECT must be flagged by seqlock-discipline.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#define SOCPINN_HOT [[gnu::hot]]

namespace fixture {

struct Slot {
  std::atomic<std::uint64_t> seq{0};
  double payload = 0.0;
  double extra = 0.0;

  // (a) an odd bump that never closes the write window: no matching even
  // store — readers can observe torn payload.
  void publish_torn(double v) {
    const std::uint64_t s = seq.load(std::memory_order_relaxed);
    seq.store(s + 1, std::memory_order_relaxed);  // EXPECT seqlock-discipline
    std::atomic_ref<double>(payload).store(v, std::memory_order_release);
  }

  // (a) a plain payload write: no release store orders it after the odd
  // bump, and it races every reader.
  void publish_plain(double v) {
    const std::uint64_t s = seq.load(std::memory_order_relaxed);
    seq.store(s + 1, std::memory_order_relaxed);  // EXPECT seqlock-discipline
    payload = v;
    seq.store(s + 2, std::memory_order_release);
  }

  // (a) the fenced shape: a release fence with relaxed payload stores.
  // Correct C++, but ThreadSanitizer does not model the fence, so a
  // missing or misplaced one would pass the TSan job unnoticed.
  void publish_fenced(double v) {
    const std::uint64_t s = seq.load(std::memory_order_relaxed);
    seq.store(s + 1, std::memory_order_relaxed);  // EXPECT seqlock-discipline
    std::atomic_thread_fence(std::memory_order_release);
    std::atomic_ref<double>(payload).store(v, std::memory_order_relaxed);
    seq.store(s + 2, std::memory_order_release);
  }

  // (a) one payload word is not a release: a reader acquiring only that
  // word may miss the odd bump.
  void publish_half_ordered(double v) {
    const std::uint64_t s = seq.load(std::memory_order_relaxed);
    seq.store(s + 1, std::memory_order_relaxed);  // EXPECT seqlock-discipline
    std::atomic_ref<double>(payload).store(v, std::memory_order_release);
    std::atomic_ref<double>(extra).store(v, std::memory_order_relaxed);
    seq.store(s + 2, std::memory_order_release);
  }

  // (b) a correctly ordered window whose CLOSING store is relaxed — the
  // even value can become visible without publishing the payload.
  void publish_relaxed_close(double v) {
    const std::uint64_t s = seq.load(std::memory_order_relaxed);
    seq.store(s + 1, std::memory_order_relaxed);
    std::atomic_ref<double>(payload).store(v, std::memory_order_release);
    seq.store(s + 2, std::memory_order_relaxed);  // EXPECT seqlock-discipline
  }
};

struct Engine {
  Slot slot;

  // (c) a publish call from a function that neither is a publish*
  // surface nor declares ownership.
  void tick() {
    slot.publish_torn(1.0);  // EXPECT seqlock-discipline
  }

  // (c) a bare ownership marker (no reason) must NOT waive.
  void swap_model() {
    // SOCPINN_SEQLOCK_WRITER(Engine::swap_model):
    slot.publish_torn(2.0);  // EXPECT seqlock-discipline
  }

  // (c) a marker above an intervening CODE line must NOT leak downward.
  void rotate() {
    // SOCPINN_SEQLOCK_WRITER(Engine::rotate): sole writer while rotating
    slot.publish_torn(3.0);
    slot.publish_torn(4.0);  // EXPECT seqlock-discipline
  }
};

struct HotShared {
  std::mutex mu;
  std::condition_variable cv;
};

// (d) blocking constructs inside SOCPINN_HOT bodies: the hot path is the
// wait-free side of the seqlocks.
SOCPINN_HOT void hot_tick(HotShared& h) {
  std::lock_guard<std::mutex> lk(h.mu);  // EXPECT seqlock-discipline
  std::this_thread::sleep_for(            // EXPECT seqlock-discipline
      std::chrono::microseconds(1));
}

SOCPINN_HOT void hot_wait(HotShared& h) {
  std::unique_lock<std::mutex> lk(h.mu);  // EXPECT seqlock-discipline
  h.cv.wait(lk);                          // EXPECT seqlock-discipline
}

}  // namespace fixture
