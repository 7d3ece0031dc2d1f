#pragma once
/// \file fleet_engine.hpp
/// Fleet-scale serving: one engine owns the SoC state of N independent
/// cells and advances the whole fleet per tick with batched cascaded
/// forwards — one matmul per layer for all cells of a shard instead of a
/// per-cell inference loop.
///
/// Deployment model (the scenario PINN4SOH-style fleet work targets): the
/// BMS of every cell reports sensors once at connect time (Branch-1
/// estimate, voltage consumed exactly once as in the paper's Fig. 2
/// rollout), then the server advances each cell's SoC per planning tick
/// from its expected workload (Branch 2). Work is sharded across a thread
/// pool; each shard runs on its own workspace against an immutable model
/// snapshot, so shared state is only ever read. Shard
/// boundaries depend on nothing but (num_cells, num_threads), and every
/// batched row is computed independently, so fleet results are bitwise
/// identical for any thread count. The mailbox-drain staging is reserved
/// to each shard's width at construction, so once the engine has run one
/// Branch-1 estimate and one tick (init_from_sensors, then step) it
/// performs zero heap allocations per tick, however many messages a later
/// tick drains.
///
/// Live serving (async ingest + hot-swap):
///
///   * The engine owns a lock-free per-cell Mailbox (see mailbox.hpp).
///     Producers publish sensor reports and workload overrides at any
///     time without stalling the shard loop; each tick drains the mailbox
///     at the top of the existing shard loop — every shard consumes
///     exactly its own contiguous cell range. A pending sensor report
///     triggers one batched Branch-1 re-seed for exactly the pending
///     cells of the shard (the streaming re-anchor; voltage consumed once
///     per report); a workload override replaces that cell's staged
///     Branch-2 row from this tick on, sticky until superseded by a newer
///     override (it takes precedence over rows passed to step()/run()).
///     Because drained messages are applied per cell and every batched
///     row is computed independently, a tick after a drain is bitwise
///     identical to the equivalent synchronous sequence —
///     reseed_from_sensors() for the drained reports, then step() with
///     the overridden workload rows — at any thread count. A publish that
///     races a tick's drain is never torn: it is either applied by that
///     tick or, at the latest, by the next one. Messages with a
///     non-finite field are skipped and counted (ingest_stats() —
///     serve::is_finite in mailbox.hpp is the policy, shared with the
///     synchronous reseed and the RolloutEngine re-anchor plans).
///   * The model is held as an atomically swappable shared_ptr to an
///     immutable core::TwoBranchSnapshot (RCU-style, owned by the shared
///     serve::EngineCore). swap_model() converts once off the hot path and
///     publishes between ticks:
///     every tick acquires the pointer exactly once at its top, so all
///     shards of a tick serve the same model, in-flight ticks finish on
///     the snapshot they started with (kept alive by that reference), and
///     no tick is ever dropped or torn. The engine converts the net at
///     construction, so the caller's net may be retrained or freed
///     immediately.

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "core/cell_params.hpp"
#include "core/net_snapshot.hpp"
#include "core/two_branch_net.hpp"
#include "data/windowing.hpp"
#include "serve/engine_core.hpp"
#include "serve/mailbox.hpp"
#include "util/sync.hpp"

namespace socpinn::serve {

/// How one cell of the fleet advances per tick — the FleetEngine twin of
/// RolloutEngine's LaneKind. Physics-only cells ride the same sharded
/// tick but advance with Eq. 1 from their own core::CellParams instead of
/// Branch 2, which is what lets an aging fleet mix learned and
/// physics-tracked cells in one pass (see examples/aging_fleet.cpp).
/// uint8_t-backed so the per-cell mode table stays plain bytes.
enum class CellMode : std::uint8_t {
  kCascade = 0,     ///< Branch 2 (the default — pre-refactor behavior)
  kPhysicsOnly = 1, ///< Eq. 1 with the cell's own params
};

struct FleetConfig {
  std::size_t threads = 0;  ///< worker threads; 0 = hardware_concurrency
  /// Clamp every stored SoC into [0, 1] — Branch-1 estimates (connect-time
  /// and mailbox re-seeds alike), per-tick predictions, and directly
  /// seeded state (set_soc). Same knob and same default (on) as
  /// RolloutConfig::clamp_soc — every seeding/serving path clamps unless
  /// explicitly disabled.
  bool clamp_soc = true;
  /// Scalar type of the batched forwards. Both precisions serve a
  /// snapshot of the net (converted once per snapshot, at construction or
  /// swap_model) through feature-major panels of at most nn::kColumnsTile
  /// columns at every shard size, a tail below nn::kColumnsMinBatch
  /// columns zero-padded up to it. kFloat64 (default) is bitwise
  /// identical to the net's own forwards. kFloat32 has ~2x SIMD width per
  /// tick and SoC within ~1e-5 of f64 per tick; it requires a trained net
  /// (fitted scalers), and constructing with an untrained net throws
  /// std::invalid_argument naming this knob.
  core::Precision precision = core::Precision::kFloat64;
  /// External mailbox slot storage, or nullptr (default) to let the
  /// engine allocate its own. The multi-process transport points this at
  /// `num_cells` MailboxSlots inside a mapped POSIX shm segment so
  /// telemetry producers in OTHER processes publish straight into the
  /// slots this engine's shard loop drains — same seqlock, same
  /// skip-and-count policy, zero copies at the boundary. The storage must
  /// be zero-initialized at creation (the engine does not reset it, so
  /// publishes that land before construction are drained, not lost) and
  /// must outlive the engine.
  MailboxSlot* external_mailbox_slots = nullptr;
  /// Eq. 1 parameters every cell starts with (the per-cell parameter
  /// plane's uniform seed). The default reproduces the pre-refactor
  /// constants bitwise; per-cell values diverge later via set_cell_params
  /// or mailbox param updates. Must satisfy core::is_valid (validated at
  /// construction).
  core::CellParams default_params{};
};

/// Model ownership and hot-swap (swap_model, model), simd_isa() and
/// num_threads() come from the shared serve::EngineCore.
class FleetEngine : public EngineCore {
 public:
  /// Converts `net` once into a snapshot at FleetConfig::precision — the
  /// caller's net does NOT need to outlive the engine and may keep
  /// training. Arguments are validated before any worker thread spawns or
  /// state allocates.
  FleetEngine(const core::TwoBranchNet& net, std::size_t num_cells,
              FleetConfig config = {});

  /// Batched Branch-1 estimate across the fleet: row i of `sensors_raw`
  /// (num_cells x 3: V, I, T) initializes cell i's SoC. Connect-time path;
  /// does not drain the mailbox. Rejects non-finite sensor rows with
  /// std::invalid_argument naming the cell, before any state changes (the
  /// synchronous side of the serve::is_finite policy).
  void init_from_sensors(const nn::Matrix& sensors_raw);

  /// Synchronous streaming re-anchor: one batched Branch-1 estimate over
  /// `sensors_raw` (cells.size() x 3: V, I, T) re-seeds exactly the listed
  /// cells — the synchronous equivalent of publishing those reports to the
  /// mailbox and letting the next tick drain them (bitwise identical, by
  /// per-row independence of the batched estimate). Honors clamp_soc.
  /// Non-finite sensor rows are rejected like init_from_sensors; the
  /// mailbox drain instead skips and counts them (ingest_stats()),
  /// so valid messages behave identically on both routes and invalid ones
  /// can never poison a cell's SoC.
  /// Like every tick-path method, it must NOT be called concurrently with
  /// ticks (it shares shard state); the mailbox is the concurrent route —
  /// only mailbox() publishes and swap_model() are safe from other
  /// threads while the engine ticks.
  void reseed_from_sensors(std::span<const std::size_t> cells,
                           const nn::Matrix& sensors_raw);

  /// Directly seeds the per-cell SoC state (size num_cells). Honors the
  /// clamp_soc knob exactly like init_from_sensors: out-of-range values
  /// are clamped into [0, 1] unless clamping is disabled. A NaN or Inf
  /// value is rejected whole with std::invalid_argument naming the cell,
  /// before any state changes.
  void set_soc(std::span<const double> soc);

  /// Advances every cell by one tick: row i of `workload_raw`
  /// (num_cells x 3: avg current, avg temp, horizon_s) describes cell i's
  /// expected workload, and Branch 2 maps [SoC_i, workload_i] -> SoC_i'.
  /// Drains the mailbox first; cells with an active workload override use
  /// the override instead of their row. Rejects non-finite workload rows
  /// with std::invalid_argument naming the row, before any state changes
  /// (the policy init_from_sensors applies; run() holds it too).
  void step(const nn::Matrix& workload_raw);

  /// Convenience: `ticks` steps under one shared workload row
  /// (avg current, avg temp, horizon_s) applied to every cell — bitwise
  /// identical to step() with that row repeated. Each tick drains the
  /// mailbox (overrides replace the shared row for their cells).
  void run(double avg_current, double avg_temp_c, double horizon_s,
           std::size_t ticks);

  /// Schedule-driven variant: advances the whole fleet through every
  /// window of one shared data::WorkloadSchedule — tick w applies schedule
  /// row w to every cell. This is the seam serving shares with the Fig. 5
  /// evaluation (see serve::RolloutEngine for per-lane schedules). The
  /// whole schedule is checked before the first tick.
  void run(const data::WorkloadSchedule& schedule);

  /// The engine's ingest mailbox. Producers publish per-cell sensor
  /// reports / workload overrides from any thread (one producer per cell);
  /// the engine drains it at the top of every tick.
  [[nodiscard]] Mailbox& mailbox() { return mailbox_; }
  [[nodiscard]] const Mailbox& mailbox() const { return mailbox_; }

  /// Deactivates `cell`'s sticky workload override: from the next tick on
  /// the cell follows the rows passed to step()/run() again (until a new
  /// override is drained). Synchronous, like reseed_from_sensors — must
  /// not be called concurrently with ticks. Note a message already
  /// published but not yet drained will re-activate on the next tick.
  void clear_workload_override(std::size_t cell);

  /// Deactivates every cell's workload override. Same contract.
  void clear_workload_overrides();

  /// Whether `cell` currently has an active (drained) workload override.
  [[nodiscard]] bool has_workload_override(std::size_t cell) const;

  /// Synchronously replaces `cell`'s Eq. 1 parameters — the sync twin of
  /// publishing a ParamUpdate to the mailbox and letting the next tick
  /// drain it (bitwise identical: both paths perform the same per-cell
  /// assignment into the params table). Rejects invalid params with
  /// std::invalid_argument BEFORE any state changes (the synchronous side
  /// of the policy; the drain skips-and-counts instead). Like every
  /// tick-path mutation, must not be called concurrently with ticks — the
  /// mailbox is the concurrent route.
  void set_cell_params(std::size_t cell, const core::CellParams& params);

  /// Whole-fleet variant (size num_cells); every entry validated before
  /// any is applied.
  void set_cell_params(std::span<const core::CellParams> params);

  /// `cell`'s current Eq. 1 parameters (as seeded, set, or last drained).
  [[nodiscard]] const core::CellParams& cell_params(std::size_t cell) const;

  /// Switches how `cell` advances per tick (default: every cell
  /// CellMode::kCascade — pre-refactor behavior). Physics-only cells
  /// advance with Eq. 1 from their own params; sensor re-seeds and
  /// workload overrides apply to them exactly like to cascade cells.
  /// Synchronous; same no-concurrent-ticks contract as set_cell_params.
  void set_cell_mode(std::size_t cell, CellMode mode);

  /// Whole-fleet variant (size num_cells).
  void set_cell_modes(std::span<const CellMode> modes);

  [[nodiscard]] CellMode cell_mode(std::size_t cell) const;

  /// Messages a mailbox drain skipped because a field was non-finite (the
  /// asynchronous side of the serve::is_finite policy — the drain cannot
  /// throw mid-tick, so invalid messages are dropped and counted instead
  /// of poisoning the cell's SoC / staged workload; latest-wins means the
  /// next valid publish simply supersedes). Returned as one copyable
  /// IngestStats so a sharded parent can aggregate per-worker counters
  /// across processes with operator+=. Monotonic since construction or
  /// the last reset_ingest_stats(); readable from any thread.
  [[nodiscard]] IngestStats ingest_stats() const {
    return {dropped_sensor_reports_.load(std::memory_order_relaxed),
            dropped_workload_overrides_.load(std::memory_order_relaxed),
            dropped_param_updates_.load(std::memory_order_relaxed)};
  }

  /// Zeroes the drop counters (e.g. between soak windows). Like every
  /// tick-path mutation, not to be called concurrently with ticks — a
  /// racing drain's increment could be lost.
  void reset_ingest_stats() {
    const util::RoleGuard tick(tick_serial_);
    dropped_sensor_reports_.store(0, std::memory_order_relaxed);
    dropped_workload_overrides_.store(0, std::memory_order_relaxed);
    dropped_param_updates_.store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] std::span<const double> soc() const { return soc_; }
  [[nodiscard]] std::size_t num_cells() const { return soc_.size(); }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

 private:
  /// Per-shard mailbox-drain staging, one cache line per shard: the
  /// headers are written every tick, so neighbouring shards must not
  /// share a line. Both vectors are reserved to the shard's width at
  /// construction.
  struct alignas(64) ShardScratch {
    std::vector<std::size_t> pending;   ///< cells with a fresh sensor report
    std::vector<std::array<double, 3>> reports;  ///< their [V, I, T] rows
  };

  /// The workload rows one tick advances under: cell c's row starts at
  /// data + c * stride — stride 3 over step()'s num_cells x 3 matrix,
  /// stride 0 over run()'s one shared row.
  struct WorkloadRows {
    const double* data = nullptr;
    std::size_t stride = 0;
  };

  /// Throws on invalid arguments (empty fleet, invalid default params).
  /// Runs while the EngineCore base's arguments are evaluated, before the
  /// thread pool spawns workers or any state allocates.
  static FleetConfig validated(std::size_t num_cells, FleetConfig config);

  /// One tick over every shard: drain, Branch-1 re-seed of the drained
  /// reports, then one Branch-2 panel over the shard (an active override
  /// replaces its cell's row) whose write-back advances each cell: a
  /// cascade cell takes its prediction, a physics-only cell discards it
  /// and takes Eq. 1 from its own params under workload_of (matching
  /// RolloutEngine's physics lanes). `rows` is already validated.
  void tick_shards(WorkloadRows rows) SOCPINN_REQUIRES(tick_serial_);

  /// Drains this shard's cell range of the mailbox in one pass: for each
  /// cell, consumes a param update and then a workload override into the
  /// per-cell tables, then gathers a valid pending sensor report into
  /// scratch.pending / scratch.reports for the tick's Branch-1 re-seed —
  /// the same Branch-1 forward init_from_sensors and reseed_from_sensors run,
  /// which (with per-column independence) is the whole bitwise
  /// drain-equivalence argument. Allocation-free: the staging is reserved
  /// at construction.
  void drain_shard(ShardScratch& scratch, std::size_t begin, std::size_t end)
      SOCPINN_REQUIRES(shard_exec_);

  /// The workload `cell` advances under this tick: its active override,
  /// else its row of `rows`. Always the raw f64 source, so physics cells
  /// advance in full precision under both engine precisions.
  [[nodiscard]] WorkloadOverride workload_of(std::size_t cell,
                                             WorkloadRows rows) const;

  /// Owning mailbox or a view over FleetConfig::external_mailbox_slots,
  /// depending on the config.
  static Mailbox make_mailbox(const FleetConfig& config,
                              std::size_t num_cells);

  /// Phantom capabilities (zero runtime state — see util::ThreadRole).
  /// tick_serial_ is the single-caller tick surface: every tick-path
  /// mutation enters it with a RoleGuard, and tick_shards REQUIRES it,
  /// so a new entry point that reaches the tick machinery without
  /// stating the "no concurrent ticks" contract fails the clang
  /// -Wthread-safety build. shard_exec_ is the shard-execution surface:
  /// the per-shard helpers REQUIRE it and only the shard-body lambdas
  /// (pool-dispatched or on the calling thread) enter it, so shard-local
  /// state like override_ / params_ cannot silently grow callers outside
  /// the sharded tick.
  util::ThreadRole tick_serial_;
  util::ThreadRole shard_exec_;

  std::vector<ShardScratch> scratch_;  ///< one per pool thread
  std::vector<double> soc_;
  Mailbox mailbox_;
  /// Sticky per-cell workload overrides consumed from the mailbox. Each
  /// entry is only ever touched by the shard owning the cell (plain bytes,
  /// not bit-packed, so neighboring cells on a shard boundary never race).
  std::vector<WorkloadOverride> override_;
  std::vector<std::uint8_t> override_active_;
  /// The per-cell parameter plane: each cell's Eq. 1 params, seeded
  /// uniformly from FleetConfig::default_params, updated per cell by
  /// set_cell_params or mailbox param drains. Shard-local access only
  /// (like override_), allocated once at construction.
  std::vector<core::CellParams> params_;
  /// Per-cell advancement mode (CellMode, stored as plain bytes like
  /// override_active_ so shard-boundary neighbors never race).
  std::vector<std::uint8_t> cell_mode_;
  /// Invalid messages skipped by drains. Atomic because drains run on
  /// shard threads (relaxed is enough: they are statistics, not
  /// synchronization).
  std::atomic<std::uint64_t> dropped_sensor_reports_{0};
  std::atomic<std::uint64_t> dropped_workload_overrides_{0};
  std::atomic<std::uint64_t> dropped_param_updates_{0};
  std::uint64_t ticks_ = 0;
};

}  // namespace socpinn::serve
