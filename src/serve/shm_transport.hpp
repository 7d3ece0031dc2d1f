#pragma once
/// \file shm_transport.hpp
/// Shared-memory transport of the multi-process fleet split: the wire
/// format between a ShardedFleet parent and its shard worker processes.
///
/// One fleet, N processes, O(10^6) cells. Each worker process owns one
/// contiguous cell range (a serve::Shard) and runs the existing
/// FleetEngine over it; the parent owns ingress and command fan-out.
/// Everything they exchange lives in POSIX shared memory:
///
///   * One segment per fleet, laid out by WorkerSegmentLayout: a
///     WorkerHeader per worker (command/ack channel + per-command status
///     export), then three per-cell arrays in fleet order, of which each
///     worker owns its shard's [begin, end) slice, the way a FleetEngine
///     thread shard owns its slice of the engine's SoC:
///       - MailboxSlots, the SAME seqlock slots FleetEngine drains: the
///         parent's Mailbox view and the worker engines'
///         external_mailbox_slots alias these bytes, so a telemetry
///         producer in the parent publishes straight into the slots the
///         worker's shard loop consumes, zero copies at the boundary;
///       - SoC, written by each worker before it acks and read in place
///         by the parent;
///       - 3-double input rows, a batch the parent stages per command
///         (sensors for init, workload rows for step).
///   * One ModelRegion shared by all workers: a versioned seqlock over a
///     serialized model blob (core::save_model text — 17 significant
///     digits, so the cross-process round trip is bitwise). The parent
///     serializes a snapshot ONCE per hot-swap; each worker adopts at its
///     next command boundary (the worker only ticks while executing a
///     command, so adoption is deterministic: a publish between commands
///     is served by the very next command — RCU semantics, no torn
///     ticks).
///
/// Every cross-process struct here is trivially copyable, fixed-layout,
/// and all-zero-valid (ftruncate's zero-fill IS initialization), with all
/// concurrent fields accessed through lock-free std::atomic_ref —
/// address-free atomics, valid across address spaces, same contract
/// mailbox.hpp pins for MailboxSlot.
///
/// Segments are created with shm_open + ftruncate + mmap and then
/// immediately shm_unlink'ed: workers are fork()ed from the parent and
/// inherit the mappings, so no name ever needs to be re-opened, nothing
/// leaks on crash, and the segment dies with its last mapping.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "serve/mailbox.hpp"
#include "serve/thread_pool.hpp"

namespace socpinn::serve {

/// One contiguous cell range [begin, end) of the fleet, owned by one
/// worker — the [begin, end) boundary contract every serve engine already
/// shards by, lifted into a value the multi-process split can pass
/// around. Boundaries come from the SAME shard_range the thread pool
/// uses, so a process x thread split nests: worker w's engine re-shards
/// its own [begin, end) across threads with identical floor arithmetic.
struct Shard {
  std::size_t index = 0;
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t size() const { return end - begin; }

  friend bool operator==(const Shard&, const Shard&) = default;
};

/// Splits [0, num_cells) into `workers` contiguous shards with the thread
/// pool's boundaries (shard_range). Every shard of a fleet with
/// num_cells >= workers is non-empty. Throws std::invalid_argument on a
/// zero worker count or workers > num_cells (an empty shard would leave a
/// worker process with an engine FleetEngine refuses to build).
[[nodiscard]] std::vector<Shard> partition_fleet(std::size_t num_cells,
                                                 std::size_t workers);

/// Commands the parent broadcasts through WorkerHeader. The values are
/// part of the cross-process ABI (both sides are always the same forked
/// binary, but the explicit values keep hexdumps readable).
enum class WorkerCommand : std::uint32_t {
  kNone = 0,             ///< zero-fill initial state: no command yet
  kInitFromSensors = 1,  ///< the shard's input rows hold sensor rows
  kSetSoc = 2,           ///< the shard's SoC slice holds seeded values
  kStep = 3,             ///< the shard's input rows hold workload rows
  kRun = 4,              ///< param0..2 = shared workload row, ticks = count
  kStop = 5,             ///< ack, then _exit(0)
  kSetCellModes = 6,     ///< input row i's first field: cell i's mode
                         ///< (0 = cascade, anything else = physics)
};

/// One worker's command/status channel, at the head of the segment.
/// Single-writer on each side: the parent writes the command fields and
/// bumps cmd_seq (release); the worker executes, writes the status/export
/// fields, and publishes ack_seq = cmd_seq (release). Each side waits for
/// the other's counter through wait_until: an acquire load per poll plus
/// a liveness check (waitpid in the parent, getppid in the worker), so a
/// dead peer turns into an error instead of a hang.
struct alignas(64) WorkerHeader {
  // --- ABI fingerprint (parent-written once, before fork) ---
  /// serve::shm_layout_hash() of the binary that laid out the segment.
  /// shard_worker_main verifies it against its own hash before touching
  /// anything else and exits with a diagnostic on mismatch — the runtime
  /// backstop of the static layout manifest (see serve/shm_layout.hpp).
  /// Fork-without-exec makes both sides the same binary today, but the
  /// check is what lets a future exec/socket transport fail loudly
  /// instead of corrupting silently on header drift.
  std::uint64_t layout_hash = 0;

  // --- command channel (parent-written between acks) ---
  std::uint64_t cmd_seq = 0;
  std::uint32_t cmd = 0;  ///< WorkerCommand
  std::uint32_t pad_ = 0;
  double param0 = 0.0;  ///< kRun: avg_current
  double param1 = 0.0;  ///< kRun: avg_temp_c
  double param2 = 0.0;  ///< kRun: horizon_s
  std::uint64_t ticks = 0;  ///< kRun: tick count

  // --- status export (worker-written before each ack) ---
  std::uint64_t ack_seq = 0;
  std::uint32_t status = 0;  ///< 0 = ok, 1 = error (error_msg valid)
  std::uint32_t pad2_ = 0;
  std::uint64_t dropped_sensor_reports = 0;    ///< engine IngestStats export
  std::uint64_t dropped_workload_overrides = 0;
  std::uint64_t dropped_param_updates = 0;
  std::uint64_t model_version_adopted = 0;  ///< ModelRegion version in use
  std::uint64_t allocs_last_command = 0;    ///< alloc-hook delta, 0 if unset
  char error_msg[160] = {};  ///< NUL-terminated when status == 1
};

static_assert(std::is_trivially_copyable_v<WorkerHeader> &&
                  sizeof(WorkerHeader) % 64 == 0,
              "WorkerHeader is a cross-process ABI: raw bytes, whole cache "
              "lines");

// Layout contract of the command channel, mirroring mailbox.hpp's
// MailboxSlot block: both sequence counters are accessed through
// std::atomic_ref<std::uint64_t> from different processes, which is only
// address-free (valid across address spaces) when the type is always
// lock-free and the object meets required_alignment.
static_assert(std::atomic_ref<std::uint64_t>::is_always_lock_free,
              "cmd_seq/ack_seq must be lock-free: a library mutex would "
              "deadlock across the fork boundary");
static_assert(offsetof(WorkerHeader, cmd_seq) %
                      std::atomic_ref<std::uint64_t>::required_alignment ==
                  0,
              "cmd_seq must satisfy atomic_ref alignment");
static_assert(offsetof(WorkerHeader, ack_seq) %
                      std::atomic_ref<std::uint64_t>::required_alignment ==
                  0,
              "ack_seq must satisfy atomic_ref alignment");

/// Byte offsets inside a fleet's segment: `workers` headers, then the
/// per-cell arrays over `num_cells` cells. Pure arithmetic — both sides
/// of the fork compute the same offsets from the same counts.
/// MailboxSlot's 64-byte alignment is honored by construction (a header
/// is a whole number of cache lines).
struct WorkerSegmentLayout {
  std::size_t num_cells = 0;
  std::size_t workers = 1;

  [[nodiscard]] std::size_t header_offset(std::size_t worker = 0) const {
    return worker * sizeof(WorkerHeader);
  }
  [[nodiscard]] std::size_t mailbox_offset() const {
    return workers * sizeof(WorkerHeader);
  }
  [[nodiscard]] std::size_t soc_offset() const {
    return mailbox_offset() + num_cells * sizeof(MailboxSlot);
  }
  [[nodiscard]] std::size_t input_offset() const {
    return soc_offset() + num_cells * sizeof(double);
  }
  [[nodiscard]] std::size_t total_size() const {
    return input_offset() + num_cells * 3 * sizeof(double);
  }
};

/// One wait beat of the command channel: a 100 us sleep. The parent and
/// its workers share cores (possibly ONE core in CI containers), so
/// waiters sleep instead of busy-spinning: a command is a whole batched
/// tick over thousands of cells, which dwarfs the nap.
void nap();

/// The one wait of the command channel, used by both ends: polls done()
/// and naps between polls, asking peer_alive() every 64 polls. Returns
/// true once done() holds, false once the peer is gone. The parent waits
/// for a worker's ack, a worker for the parent's next command.
template <typename Done, typename Alive>
[[nodiscard]] bool wait_until(const Done& done, const Alive& peer_alive) {
  for (std::size_t polls = 1; !done(); ++polls) {
    if (polls % 64 == 0 && !peer_alive()) return false;
    nap();
  }
  return true;
}

/// RAII anonymous POSIX shm mapping. Created with a throwaway unique name
/// and shm_unlink'ed the moment the mapping exists, so the segment is
/// reachable only through inherited mappings (fork) — crash-safe, no
/// /dev/shm litter. The mapping is MAP_SHARED and zero-filled (the valid
/// empty state of every struct placed in it). Move-only.
class ShmSegment {
 public:
  explicit ShmSegment(std::size_t size);
  ~ShmSegment();

  ShmSegment(ShmSegment&& other) noexcept;
  ShmSegment& operator=(ShmSegment&& other) noexcept;
  ShmSegment(const ShmSegment&) = delete;
  ShmSegment& operator=(const ShmSegment&) = delete;

  [[nodiscard]] void* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Typed view at a byte offset (must respect T's alignment — the layout
  /// structs above guarantee it for their members).
  template <typename T>
  [[nodiscard]] T* at(std::size_t byte_offset) const {
    static_assert(std::is_trivially_copyable_v<T>,
                  "only raw-byte types live in shared memory");
    return reinterpret_cast<T*>(static_cast<char*>(data_) + byte_offset);
  }

 private:
  void* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Header of the versioned model region. Single writer (the parent), many
/// readers (one per worker process): a seqlock over the serialized blob.
/// `seq` is odd while a publish is in flight; version = seq / 2 (so the
/// zero-filled initial state is "version 0, nothing published").
struct alignas(64) ModelRegionHeader {
  std::uint64_t seq = 0;
  std::uint64_t size = 0;      ///< bytes of the current blob
  std::uint64_t capacity = 0;  ///< fixed blob capacity of the region
};

static_assert(std::is_trivially_copyable_v<ModelRegionHeader>);

/// Versioned single-writer model store in its own shm segment: the
/// cross-process twin of core::SnapshotHandle. publish() serializes RCU
/// semantics across the fork boundary — a worker that read version v
/// keeps serving v until it adopts, and adoption happens only at a
/// command boundary, never inside a tick.
class ModelRegion {
 public:
  /// Creates a region able to hold blobs up to `capacity` bytes.
  explicit ModelRegion(std::size_t capacity);

  /// Publishes `blob` as the next version (parent only; one writer).
  /// Throws std::invalid_argument if blob exceeds the fixed capacity —
  /// size it from the first serialized model; this repo's architecture is
  /// fixed, so later models serialize to (almost) identical sizes.
  void publish(const std::string& blob);

  /// Latest published version (0 = nothing published yet). Any process.
  [[nodiscard]] std::uint64_t version() const;

  /// Coherent snapshot of the newest blob if its version differs from
  /// `seen_version`; returns the read version and fills `out`, or returns
  /// `seen_version` unchanged if nothing newer is published. Retries the
  /// seqlock read internally — the writer publishes rarely (hot-swap), so
  /// a retry loop cannot livelock in practice.
  [[nodiscard]] std::uint64_t read_if_newer(std::uint64_t seen_version,
                                            std::string& out) const;

 private:
  [[nodiscard]] ModelRegionHeader* header() const {
    return segment_.at<ModelRegionHeader>(0);
  }
  /// The blob, as whole words: each is copied through an atomic_ref, so a
  /// reader racing a publish reads stale or new words, never a data race.
  [[nodiscard]] std::uint64_t* words() const {
    return segment_.at<std::uint64_t>(sizeof(ModelRegionHeader));
  }

  ShmSegment segment_;
};

}  // namespace socpinn::serve
