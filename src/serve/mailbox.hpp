#pragma once
/// \file mailbox.hpp
/// Lock-free per-cell ingest mailbox for live fleet serving.
///
/// The deployment loop the paper pitches — a BMS backend that keeps
/// estimating SoC while sensors stream in — needs a seam between
/// asynchronous producers (per-cell telemetry feeds, workload planners)
/// and the synchronous sharded tick of FleetEngine. The mailbox is that
/// seam: one cache-line-aligned slot triple per cell (sensor report,
/// workload override, param update), each slot a single-writer seqlock
/// over a 3-double payload.
///
///   * publish_* is wait-free and allocation-free: two counter stores and
///     three relaxed payload stores. Producers never block the shard loop
///     and never wait for a tick. One producer per cell (the cell's own
///     telemetry stream — SPSC, the contract the seqlock needs); distinct
///     cells are fully independent.
///   * consume_* is wait-free for the single consumer (the engine's
///     per-shard drain at the top of each tick): a publish that races the
///     read is simply left for the next tick instead of spinning, so the
///     drain cost is bounded regardless of producer pressure.
///   * Latest-wins: slots hold one message; a publish before the next
///     drain supersedes the previous one, which is exactly the semantics
///     a fresh sensor report or a revised workload forecast wants.
///   * No torn reads, ever: the seqlock sequence check rejects any read
///     that overlapped a publish (payload fields are release-stored and
///     acquire-loaded through std::atomic_ref, so the protocol is also
///     data-race-free under TSan, not just on x86).
///
/// Shared-memory transport: MailboxSlot is a trivially-copyable,
/// 64-byte-aligned plain struct — no std::atomic members, no vtable, no
/// pointers — whose atomicity lives entirely in the std::atomic_ref
/// accessors. All-zero bytes are its valid empty state. That is exactly
/// what lets the multi-process split (serve/shm_transport.hpp) place the
/// slot array in a POSIX shm segment: a producer in the parent process
/// publishes through the same seqlock code into the same bytes a worker
/// process drains, and ftruncate's zero-fill IS initialization. The
/// static_asserts below pin the layout contract; std::atomic_ref being
/// always lock-free for 8-byte scalars on every supported target makes
/// the protocol address-free, i.e. valid across address spaces.
///
/// FleetEngine drains its mailbox inside the existing shard loop — each
/// shard consumes exactly its own contiguous cell range, so the drain
/// inherits the engine's thread-count-invariance and zero-allocation
/// contracts (see fleet_engine.hpp for the equivalence guarantee).

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "util/annotations.hpp"

namespace socpinn::serve {

/// One raw BMS report: the Branch-1 input triple. Consuming it re-anchors
/// the cell with a fresh estimate (voltage consumed once per report, the
/// paper's Fig. 2 discipline applied per re-anchor).
struct SensorReport {
  double voltage = 0.0;
  double current = 0.0;
  double temp_c = 0.0;
};

/// One revised workload forecast: the Branch-2 row tail. Consuming it
/// replaces the cell's staged workload until a newer override arrives.
struct WorkloadOverride {
  double avg_current = 0.0;
  double avg_temp_c = 0.0;
  double horizon_s = 0.0;
};

/// One per-cell physics-parameter update: the wire format of
/// core::CellParams (cell_params.hpp) for the slow SoH loop. Consuming it
/// replaces the cell's Eq. 1 parameters from that tick on — the third slot
/// kind, same single-writer seqlock, same latest-wins semantics (a newer
/// capacity estimate supersedes an undrained one, which is exactly what a
/// background SoH estimator wants). `reserved` pads the payload to the
/// slot's three doubles; it must be finite (the drain's is_finite check
/// covers it) but is otherwise not interpreted yet.
struct ParamUpdate {
  double capacity_ah = 0.0;
  double coulombic_eff = 1.0;
  double reserved = 0.0;
};

/// The shared message-validity policy of every re-anchor/override path: a
/// message is valid iff every field is finite. A NaN or Inf sensor value
/// would poison the cell's SoC until the next valid report (the Branch-1
/// estimate of a non-finite input is garbage, and clamping cannot save a
/// NaN). Synchronous entry points (FleetEngine::init_from_sensors /
/// reseed_from_sensors, RolloutEngine's re-anchor plan validation) REJECT
/// invalid rows with std::invalid_argument before touching any state; the
/// asynchronous mailbox drain cannot throw mid-tick, so it SKIPS invalid
/// messages and counts them (FleetEngine::ingest_stats) — latest-wins
/// semantics mean the next valid message simply supersedes, nothing is
/// retried. The policy holds at every ingress edge, including the
/// cross-process one: a message published through shm is validated by the
/// draining worker exactly like a local publish.
[[nodiscard]] inline bool is_finite(const SensorReport& report) {
  return std::isfinite(report.voltage) && std::isfinite(report.current) &&
         std::isfinite(report.temp_c);
}

[[nodiscard]] inline bool is_finite(const WorkloadOverride& forecast) {
  return std::isfinite(forecast.avg_current) &&
         std::isfinite(forecast.avg_temp_c) &&
         std::isfinite(forecast.horizon_s);
}

/// Param updates additionally need core::is_valid(CellParams) at the drain
/// (a FINITE capacity of 0 still poisons the Eq. 1 divisor); this is the
/// shared finiteness half of that policy.
[[nodiscard]] inline bool is_finite(const ParamUpdate& update) {
  return std::isfinite(update.capacity_ah) &&
         std::isfinite(update.coulombic_eff) &&
         std::isfinite(update.reserved);
}

/// Non-finite messages a drain skipped, per kind — the aggregation unit of
/// the skip-and-count side of serve::is_finite. Plain copyable counters so
/// a sharded parent can sum per-worker stats across process boundaries
/// (each worker exports its own through the shm transport).
struct IngestStats {
  std::uint64_t dropped_sensor_reports = 0;
  std::uint64_t dropped_workload_overrides = 0;
  /// Param updates skipped because a field was non-finite OR the decoded
  /// core::CellParams failed is_valid (e.g. capacity <= 0 — finite but
  /// just as poisonous to the Eq. 1 divisor).
  std::uint64_t dropped_param_updates = 0;

  IngestStats& operator+=(const IngestStats& other) {
    dropped_sensor_reports += other.dropped_sensor_reports;
    dropped_workload_overrides += other.dropped_workload_overrides;
    dropped_param_updates += other.dropped_param_updates;
    return *this;
  }

  friend bool operator==(const IngestStats&, const IngestStats&) = default;
};

namespace detail {

/// Single-writer seqlock over three doubles, ordered by its own accesses
/// (no standalone fence; Boehm, "Can Seqlocks Get Along with Programming
/// Language Memory Models?", MSPC 2012). Writer protocol: bump the
/// sequence to odd (write in progress), release-store the payload,
/// release-store the even sequence. Reader protocol: acquire-load the
/// sequence, reject odd, acquire-load the payload, re-load the sequence
/// and reject a change. A reader whose acquire load sees a payload word of
/// a newer publish also sees that publish's odd bump on its re-load, so a
/// torn read is always rejected. On x86 every one of these accesses is a
/// plain move.
///
/// The members are PLAIN scalars; every access goes through a
/// std::atomic_ref — semantically identical to the std::atomic members
/// this slot used to hold (race-free by construction, TSan-clean, portable
/// C++ instead of x86 folklore), but the struct itself stays trivially
/// copyable and all-zero-initializable, which is what lets a slot live
/// in-place inside a shared-memory segment mapped by several processes.
struct SeqlockSlot3 {
  /// Wait-free single-writer publish.
  SOCPINN_HOT void publish(double a, double b, double c) {
    const std::atomic_ref<std::uint64_t> seq(seq_);
    const std::uint64_t s = seq.load(std::memory_order_relaxed);
    seq.store(s + 1, std::memory_order_relaxed);
    std::atomic_ref<double>(a_).store(a, std::memory_order_release);
    std::atomic_ref<double>(b_).store(b, std::memory_order_release);
    std::atomic_ref<double>(c_).store(c, std::memory_order_release);
    seq.store(s + 2, std::memory_order_release);
  }

  /// Wait-free single-consumer read: returns true (and advances `cursor`)
  /// only for a publish newer than `cursor` that was read coherently. A
  /// racing publish returns false — the message is picked up on the next
  /// call instead of spinning under producer pressure.
  SOCPINN_HOT bool consume(std::uint64_t& cursor, double out[3]) const {
    // atomic_ref requires a non-const referent until C++26; the slot's
    // logical constness is preserved (loads only).
    auto* self = const_cast<SeqlockSlot3*>(this);
    const std::atomic_ref<std::uint64_t> seq(self->seq_);
    const std::uint64_t s1 = seq.load(std::memory_order_acquire);
    if (s1 == cursor || (s1 & 1u) != 0) return false;
    out[0] = std::atomic_ref<double>(self->a_).load(std::memory_order_acquire);
    out[1] = std::atomic_ref<double>(self->b_).load(std::memory_order_acquire);
    out[2] = std::atomic_ref<double>(self->c_).load(std::memory_order_acquire);
    if (seq.load(std::memory_order_relaxed) != s1) return false;
    cursor = s1;
    return true;
  }

  /// Whether a publish newer than `cursor` is (or is about to be) visible.
  [[nodiscard]] SOCPINN_HOT bool pending(std::uint64_t cursor) const {
    auto* self = const_cast<SeqlockSlot3*>(this);
    return std::atomic_ref<std::uint64_t>(self->seq_)
               .load(std::memory_order_relaxed) != cursor;
  }

  /// 64-bit on purpose: at 2 counts per publish a 32-bit sequence would
  /// wrap the consumer cursor after 2^31 publishes between drains (~8 s of
  /// one producer at the measured publish rate), making the newest message
  /// invisible; 64 bits cannot wrap in a deployment lifetime, and the
  /// alignas(64) padding of MailboxSlot absorbs the extra bytes for free.
  std::uint64_t seq_ = 0;
  double a_ = 0.0;
  double b_ = 0.0;
  double c_ = 0.0;
};

}  // namespace detail

/// All three slots plus the consumer cursors of one cell, cache-line-aligned so
/// two cells' producers never contend on one line. The cursors are
/// consumer-owned (only consume_* writes them — inside the engine, always
/// the shard that owns the cell, successive ticks ordered by the pool's
/// mutex) but accessed through relaxed atomic_ref so the any-thread
/// pending() pre-check reads them race-free.
///
/// This is the unit of the shared-memory transport's slot array: the
/// static_asserts below are the layout contract serve/shm_transport.hpp
/// relies on to place `num_cells` of these in-place in a mapped segment.
struct alignas(64) MailboxSlot {
  detail::SeqlockSlot3 sensors;
  detail::SeqlockSlot3 workload;
  detail::SeqlockSlot3 params;  ///< ParamUpdate (the slow SoH loop's lane)
  std::uint64_t sensor_cursor = 0;
  std::uint64_t workload_cursor = 0;
  std::uint64_t param_cursor = 0;
};

// The shm contract: plain bytes (memcpy-able, no construction needed
// beyond zero-fill), one cache line of alignment, two lines of size, and
// lock-free 8-byte atomics (lock-free atomic_ref operations are
// address-free, so the seqlock works across address spaces).
static_assert(std::is_trivially_copyable_v<MailboxSlot>,
              "MailboxSlot must be placeable in shared memory as raw bytes");
static_assert(alignof(MailboxSlot) == 64 && sizeof(MailboxSlot) == 128,
              "MailboxSlot layout is a cross-process ABI: fixed size and "
              "cache-line alignment");
static_assert(std::atomic_ref<std::uint64_t>::is_always_lock_free &&
                  std::atomic_ref<double>::is_always_lock_free,
              "the mailbox seqlock requires lock-free (address-free) 8-byte "
              "atomics to work across processes");

/// Per-cell ingest mailbox: a sensor slot, a workload slot, and a param
/// slot per cell.
/// Producer side (publish_*) is safe from any thread as long as each cell
/// has one producer; consumer side (consume_*) is owned by one logical
/// consumer — inside FleetEngine that is the shard owning the cell, and
/// successive ticks are ordered by the pool's own synchronization.
///
/// Storage comes in two flavors behind one API:
///   * Owning (the single-process default): the mailbox allocates and
///     zero-initializes its own slot array.
///   * View (the multi-process transport): the mailbox wraps an external
///     MailboxSlot array — e.g. mapped shared memory — without touching
///     its contents, so publishes that landed before attachment are
///     drained, not dropped. The caller guarantees the storage is
///     zero-initialized at segment creation (ftruncate zero-fill counts)
///     and outlives the mailbox.
class Mailbox {
 public:
  explicit Mailbox(std::size_t num_cells)
      : owned_(check_cells(num_cells)),
        slots_(owned_.data()),
        num_cells_(num_cells) {}

  /// Non-owning view over `slots[0, num_cells)` (shared-memory mode).
  Mailbox(MailboxSlot* slots, std::size_t num_cells)
      : slots_(slots), num_cells_(check_cells(num_cells)) {
    if (slots == nullptr) {
      throw std::invalid_argument("Mailbox: null external slot array");
    }
  }

  [[nodiscard]] std::size_t num_cells() const { return num_cells_; }

  /// Publishes a fresh BMS report for `cell` (wait-free; latest wins).
  SOCPINN_HOT void publish_sensors(std::size_t cell,
                                   const SensorReport& report) {
    slots_checked(cell).sensors.publish(report.voltage, report.current,
                                        report.temp_c);
  }

  /// Publishes a revised workload forecast for `cell` (wait-free).
  SOCPINN_HOT void publish_workload(std::size_t cell,
                                    const WorkloadOverride& forecast) {
    slots_checked(cell).workload.publish(forecast.avg_current,
                                         forecast.avg_temp_c,
                                         forecast.horizon_s);
  }

  /// Publishes fresh Eq. 1 parameters for `cell` (wait-free; latest wins —
  /// the slow SoH loop's ingress lane). Same single-producer-per-cell
  /// contract as the other slot kinds; a background SoH estimator is that
  /// producer.
  SOCPINN_HOT void publish_params(std::size_t cell, const ParamUpdate& update) {
    slots_checked(cell).params.publish(update.capacity_ah,
                                       update.coulombic_eff, update.reserved);
  }

  /// Consumes the newest unseen sensor report for `cell`, if any.
  /// Consumer-side: one logical consumer per cell (inside FleetEngine,
  /// the shard owning the cell).
  SOCPINN_HOT bool consume_sensors(std::size_t cell, SensorReport& out) {
    MailboxSlot& slot = slots_checked(cell);
    return consume(slot.sensors, slot.sensor_cursor, out);
  }

  /// Consumes the newest unseen workload override for `cell`, if any.
  /// Same consumer-side contract as consume_sensors.
  SOCPINN_HOT bool consume_workload(std::size_t cell, WorkloadOverride& out) {
    MailboxSlot& slot = slots_checked(cell);
    return consume(slot.workload, slot.workload_cursor, out);
  }

  /// Consumes the newest unseen param update for `cell`, if any. Same
  /// consumer-side contract as consume_sensors.
  SOCPINN_HOT bool consume_params(std::size_t cell, ParamUpdate& out) {
    MailboxSlot& slot = slots_checked(cell);
    return consume(slot.params, slot.param_cursor, out);
  }

  /// Whether `cell` has an unconsumed (or in-flight) message of any
  /// kind — a cheap heuristic pre-check callable from ANY thread
  /// (producers may poll their backlog); consume_* stays the source of
  /// truth, and a racing drain may make the answer stale by one message.
  [[nodiscard]] SOCPINN_HOT bool pending(std::size_t cell) const {
    MailboxSlot& slot = slots_checked(cell);
    return slot.sensors.pending(
               std::atomic_ref<std::uint64_t>(slot.sensor_cursor)
                   .load(std::memory_order_relaxed)) ||
           slot.workload.pending(
               std::atomic_ref<std::uint64_t>(slot.workload_cursor)
                   .load(std::memory_order_relaxed)) ||
           slot.params.pending(
               std::atomic_ref<std::uint64_t>(slot.param_cursor)
                   .load(std::memory_order_relaxed));
  }

 private:
  /// The one consume body behind consume_*: reads `slot` past its consumer
  /// cursor word `cursor` into a three-double message.
  template <typename Message>
  SOCPINN_HOT static bool consume(const detail::SeqlockSlot3& slot,
                                  std::uint64_t& cursor, Message& out) {
    double v[3];
    const std::atomic_ref<std::uint64_t> cursor_ref(cursor);
    std::uint64_t seen = cursor_ref.load(std::memory_order_relaxed);
    if (!slot.consume(seen, v)) return false;
    cursor_ref.store(seen, std::memory_order_relaxed);
    out = {v[0], v[1], v[2]};
    return true;
  }

  static std::size_t check_cells(std::size_t num_cells) {
    if (num_cells == 0) {
      throw std::invalid_argument("Mailbox: need at least one cell");
    }
    return num_cells;
  }

  /// Every public entry point bounds-checks: an off-by-one from a
  /// producer thread must throw like the engines' own argument checks do,
  /// not scribble over adjacent memory (heap or mapped segment alike).
  /// One predictable compare per call — noise next to the slot's
  /// cache-line traffic.
  MailboxSlot& slots_checked(std::size_t cell) const {
    if (cell >= num_cells_) {
      throw std::out_of_range("Mailbox: cell index out of range");
    }
    return slots_[cell];
  }

  /// Backing storage in owning mode; empty when viewing external slots.
  /// std::vector value-initializes, which for this trivially-copyable
  /// slot type is exactly the all-zero empty state.
  std::vector<MailboxSlot> owned_;
  MailboxSlot* slots_;
  std::size_t num_cells_;
};

}  // namespace socpinn::serve
