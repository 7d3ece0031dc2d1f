#pragma once
// Fixture: clean seqlock idioms — the canonical single-writer protocol,
// a declared non-publish writer surface, and a wait-free hot body. None
// of these may be flagged by seqlock-discipline.
#include <atomic>
#include <cstdint>

#define SOCPINN_HOT [[gnu::hot]]

namespace fixture {

struct Slot {
  std::atomic<std::uint64_t> seq{0};
  double payload = 0.0;

  // The canonical writer: odd bump (relaxed), payload release stores,
  // even release store — mailbox.hpp's SeqlockSlot3::publish shape.
  void publish(double v) {
    const std::uint64_t s = seq.load(std::memory_order_relaxed);
    seq.store(s + 1, std::memory_order_relaxed);
    std::atomic_ref<double>(payload).store(v, std::memory_order_release);
    seq.store(s + 2, std::memory_order_release);
  }

  // Readers are unconstrained by the writer rules; this one acquire-loads
  // the payload, the pairing half of the writer's release stores.
  bool consume(double& out) {
    const std::uint64_t before = seq.load(std::memory_order_acquire);
    if (before & 1) return false;
    out = std::atomic_ref<double>(payload).load(std::memory_order_acquire);
    return seq.load(std::memory_order_relaxed) == before;
  }
};

struct Fleet {
  Slot slot;

  // A publish* surface may publish without further ceremony.
  void publish_sensors(double v) { slot.publish(v); }

  // Any other surface declares ownership with a justified marker —
  // same line or the contiguous comment block directly above.
  void swap_model(double v) {
    // SOCPINN_SEQLOCK_WRITER(Fleet::swap_model): the parent is the one
    // writer of this slot; concurrent swaps are externally serialized.
    slot.publish(v);
  }

  void reset(double v) {
    slot.publish(v);  // SOCPINN_SEQLOCK_WRITER(Fleet::reset): one writer
  }
};

// Hot bodies stay on the wait-free side: atomics only.
SOCPINN_HOT bool hot_poll(Slot& s, double& out) {
  return s.consume(out);
}

}  // namespace fixture
