#pragma once
/// \file sharded_fleet.hpp
/// Multi-process fleet serving: one fleet of N cells sharded across W
/// worker processes over the shared-memory transport.
///
/// ShardedFleet is the parent-side facade. It partitions [0, num_cells)
/// into W contiguous serve::Shards (same floor boundaries as the thread
/// pool, so process and thread splits nest), maps one POSIX shm segment
/// for the whole fleet (WorkerSegmentLayout) plus one shared versioned
/// model region, forks the workers (no exec — they run shard_worker_main
/// from this binary), and then mirrors the FleetEngine surface:
/// init_from_sensors / set_soc / step / run / swap_model / publish_* /
/// soc() / ingest_stats().
///
/// Semantics match the single-process engine exactly:
///
///   * Bitwise parity: for ANY process x thread split, the fleet SoC
///     after any command sequence is bitwise identical to one
///     FleetEngine over the whole fleet — per-cell independence plus the
///     engine's own thread-count invariance make partitioning neutral,
///     and the model reaches workers through core::save_model's 17-digit
///     text, which round-trips every double bitwise.
///   * Ingress: publish_sensors / publish_workload write into the owning
///     worker's mailbox slots THROUGH shared memory — the same seqlock
///     publish as the in-process mailbox, wait-free, zero copies at the
///     boundary. Each worker's engine drains its slots at the top of its
///     ticks; non-finite messages are skipped and counted per worker and
///     aggregated by ingest_stats() (the serve::is_finite skip-and-count
///     policy, held at the cross-process ingress edge too).
///   * Hot-swap: swap_model serializes the net ONCE into the model
///     region; every worker adopts at its next command boundary (workers
///     only tick during commands, so adoption is deterministic and no
///     tick is ever torn — RCU semantics across processes).
///
/// Commands are synchronous: each mirrors the blocking FleetEngine call,
/// staging its batch into the segment with one copy, broadcasting to all
/// workers and waiting for every ack (with waitpid liveness checks, so a
/// crashed worker raises instead of hanging). Workers write SoC where
/// soc() reads it. Worker errors surface as std::runtime_error naming the
/// lowest-index failed worker, raised only once every live worker has
/// acked the command. Like FleetEngine's tick-path methods, commands must
/// come from one thread; publish_* and model_version() are safe from any
/// thread at any time.

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/cell_params.hpp"
#include "core/net_snapshot.hpp"
#include "core/two_branch_net.hpp"
#include "serve/fleet_engine.hpp"
#include "serve/mailbox.hpp"
#include "serve/shm_transport.hpp"
#include "util/sync.hpp"

namespace socpinn::serve {

struct ShardedFleetConfig {
  /// Worker processes. Must be >= 1 and <= num_cells (every worker gets a
  /// non-empty shard).
  std::size_t workers = 1;
  /// FleetConfig::threads of EVERY worker engine (0 would mean
  /// hardware_concurrency per worker — usually wrong when W workers share
  /// the host, hence the explicit default of 1).
  std::size_t threads_per_worker = 1;
  bool clamp_soc = true;
  core::Precision precision = core::Precision::kFloat64;
  /// FleetConfig::default_params of EVERY worker engine: the Eq. 1
  /// parameters each cell starts with until publish_params replaces its
  /// own (same default as the single-process engine, so the bitwise
  /// parity contract extends to the param plane).
  core::CellParams default_params{};
  /// Optional allocation probe forwarded to every worker (see
  /// ShardWorkerContext::alloc_counter); exposed back per worker through
  /// worker_allocs_last_command().
  std::size_t (*alloc_counter)() = nullptr;
};

class ShardedFleet {
 public:
  /// Serializes `net` once into the model region (the multi-process
  /// transport ships the model as bytes, so the net must be trained —
  /// fitted scalers — at ANY precision; throws std::invalid_argument
  /// otherwise), maps the fleet's segment, and forks the workers.
  /// The caller's net may be retrained or freed immediately.
  ShardedFleet(const core::TwoBranchNet& net, std::size_t num_cells,
               ShardedFleetConfig config = {});

  /// Stops and reaps every worker (best effort — a worker that ignores
  /// kStop is killed).
  ~ShardedFleet();

  ShardedFleet(const ShardedFleet&) = delete;
  ShardedFleet& operator=(const ShardedFleet&) = delete;

  /// Batched Branch-1 connect-time seed, exactly FleetEngine's contract:
  /// num_cells x 3 [V, I, T] rows, non-finite rows rejected whole with
  /// std::invalid_argument naming the cell BEFORE any worker sees the
  /// batch.
  void init_from_sensors(const nn::Matrix& sensors_raw);

  /// Directly seeds per-cell SoC (size num_cells; clamped by workers
  /// under clamp_soc, like FleetEngine::set_soc). Non-finite values are
  /// rejected whole with std::invalid_argument naming the cell BEFORE any
  /// worker sees the batch.
  void set_soc(std::span<const double> soc);

  /// One fleet tick: row i of `workload_raw` (num_cells x 3) drives cell
  /// i. Copies the batch into the segment's input rows and ticks every
  /// worker over its slice. Non-finite rows are rejected like
  /// init_from_sensors, before any worker sees the batch (run() too).
  void step(const nn::Matrix& workload_raw);

  /// `ticks` steps under one shared workload row for every cell.
  void run(double avg_current, double avg_temp_c, double horizon_s,
           std::size_t ticks);

  /// Serializes `net` once and publishes it to every worker; each adopts
  /// at its next command. Requires a trained net (the transport
  /// serializes; same rule as construction). A net no worker could serve
  /// (core::TwoBranchSnapshotT's checks) throws std::invalid_argument
  /// here and is never published. Safe from any thread.
  void swap_model(const core::TwoBranchNet& net);

  /// Wait-free cross-process ingress (the owning worker's engine drains
  /// at its next tick). One producer per cell, like Mailbox.
  void publish_sensors(std::size_t cell, const SensorReport& report);
  void publish_workload(std::size_t cell, const WorkloadOverride& forecast);
  /// Wait-free per-cell Eq. 1 parameter update (the slow SoH loop's
  /// ingress): lands in the owning worker's param slot and is drained at
  /// the top of that worker's next tick — same latest-wins seqlock and
  /// skip-and-count policy as the other two publish_* kinds.
  void publish_params(std::size_t cell, const ParamUpdate& update);

  /// Broadcasts per-cell advancement modes (FleetEngine::set_cell_modes
  /// across the process boundary): `modes.size() == num_cells`, staged
  /// as a double in the first field of each cell's input row.
  /// Synchronous, like every other command.
  void set_cell_modes(std::span<const CellMode> modes);

  /// Fleet SoC as of the last completed command, read in the segment
  /// where the workers write it (zero before the first command; a worker
  /// that fails a command leaves its slice as it was).
  [[nodiscard]] std::span<const double> soc() const {
    return {soc_, num_cells()};
  }

  /// Sum of every worker's drop counters as exported at its most recent
  /// command ack (serve::is_finite skip-and-count, aggregated with
  /// IngestStats::operator+=).
  [[nodiscard]] IngestStats ingest_stats() const;

  [[nodiscard]] std::size_t num_cells() const { return layout_.num_cells; }
  [[nodiscard]] std::size_t num_workers() const { return workers_.size(); }
  [[nodiscard]] std::span<const Shard> shards() const { return shards_; }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

  /// Latest published model version (1 = construction-time model).
  [[nodiscard]] std::uint64_t model_version() const {
    return model_region_.version();
  }

  /// The model version worker `w` served its most recent command with.
  [[nodiscard]] std::uint64_t worker_model_version(std::size_t w) const;

  /// Allocation count of worker `w`'s engine execution during its most
  /// recent command (0 unless ShardedFleetConfig::alloc_counter is set) —
  /// the cross-process steady-state allocation-free probe.
  [[nodiscard]] std::uint64_t worker_allocs_last_command(std::size_t w) const;

 private:
  struct Worker {
    Shard shard;
    WorkerHeader* header = nullptr;
    pid_t pid = -1;
    bool reaped = false;
    std::uint64_t seq = 0;  ///< last command sequence issued
  };

  /// Publishes one command to `w` (params must already be staged in the
  /// header) — release-stores cmd_seq.
  void post(Worker& w, WorkerCommand cmd) SOCPINN_REQUIRES(cmd_serial_);
  /// Blocks until `w` acks its outstanding command, with waitpid
  /// liveness checks; returns false (and marks `w` reaped) if the worker
  /// process died first.
  bool wait_ack(Worker& w) SOCPINN_REQUIRES(cmd_serial_);
  /// Posts `cmd` to every worker and waits until each one has acked or
  /// died, then raises the lowest-index failure (a dead worker or a
  /// worker-reported error). Nothing is raised while a live worker still
  /// runs the command, so the channel stays in sync.
  void broadcast(WorkerCommand cmd) SOCPINN_REQUIRES(cmd_serial_);

  /// Phantom command-surface capability (see util::ThreadRole): the
  /// cmd_seq/ack_seq channel is strictly one-command-in-flight per
  /// worker, so post/wait_ack/broadcast REQUIRE this role and every
  /// public command enters it with a RoleGuard — a new entry point that
  /// touches the channel without stating the "commands from one thread"
  /// contract fails the clang -Wthread-safety build.
  util::ThreadRole cmd_serial_;

  /// ShardedFleetConfig::precision: every published net is snapshotted at
  /// it in the parent first, so a net no worker could serve never ships.
  core::Precision precision_;
  ModelRegion model_region_;
  std::vector<Shard> shards_;
  WorkerSegmentLayout layout_;
  ShmSegment segment_;  ///< the fleet's one segment, laid out by layout_
  Mailbox mailbox_;     ///< publish view over every cell's slot
  double* soc_;         ///< num_cells values; workers write their slices
  double* input_;       ///< num_cells x 3 rows, staged by each command
  std::vector<Worker> workers_;
  std::uint64_t ticks_ = 0;
};

}  // namespace socpinn::serve
