#pragma once
/// \file rollout_engine.hpp
/// Batched multi-trace autoregressive rollout — the paper's Fig. 5
/// experiment (voltage consumed once, Branch 2 advances the SoC per
/// planning window) turned into a fleet-scale workload.
///
/// One engine rolls N traces ("lanes") in lockstep: every lane's per-window
/// workload is extracted up front into a data::WorkloadSchedule, all lanes
/// of a shard are seeded with one batched Branch-1 estimate, and each step
/// advances every still-active lane of the shard with one batched Branch-2
/// forward (a feature-major panel, zero-padded to the panel tile once the
/// active batch thins out). Lanes are sharded contiguously across the
/// existing ThreadPool with a per-shard workspace, so the shared model
/// snapshot is only ever read.
///
/// Ragged fleets (traces of different lengths) are handled with an
/// active-lane mask: a lane retires the step its schedule runs out, the
/// remaining lanes of the shard are gathered into a denser batch, and shard
/// boundaries never reshuffle — so results are bitwise identical for any
/// thread count, and a batch-of-1 run reproduces the per-window scalar walk
/// exactly under the same clamp setting (core::rollout_cascade /
/// rollout_physics_only are wrappers over this engine; with
/// clamp_soc = false the cascade reproduces the pre-refactor unclamped
/// walk bitwise — see tests/serve/test_rollout_engine.cpp).
///
/// Physics-only lanes (Eq. 1 instead of Branch 2) ride in the same pass as
/// NN lanes, so the Fig. 5 baseline comparison costs one run.
///
/// Closed-loop lanes (mid-rollout streaming re-anchor): the paper's Fig. 5
/// consumes voltage exactly once, at seed time — an open-loop simulator.
/// A real BMS keeps reporting, and a lane with a data::ReanchorPlan plays
/// that back: at each scheduled step index the lane consumes its next
/// [V, I, T] sensor row as a fresh Branch-1 estimate that replaces the
/// trajectory point at that timestamp and feeds the same step's Branch-2
/// (or Eq. 1) input. Re-anchors are batched per shard per step — one
/// Branch-1 forward for exactly the lanes whose plan fires, the
/// FleetEngine::drain_shard shape carried into the lockstep walk — so a
/// re-anchored lane is bitwise identical to the synchronous sequence of
/// open-loop segments glued by explicit Branch-1 re-seeds, at any thread
/// count, and re-anchor steps stay allocation-free once warm. Open-loop,
/// closed-loop, and physics-only lanes mix freely in one pass.

#include <span>
#include <vector>

#include "core/cell_params.hpp"
#include "core/net_snapshot.hpp"
#include "core/predictor.hpp"
#include "core/two_branch_net.hpp"
#include "data/windowing.hpp"
#include "serve/engine_core.hpp"
#include "util/sync.hpp"

namespace socpinn::serve {

/// How one lane advances its SoC per planning window.
enum class LaneKind {
  kCascade,      ///< Branch 2, the paper's learned predictor
  kPhysicsOnly,  ///< Eq. 1 Coulomb counting (the Fig. 5 Physics-Only line)
};

/// One rollout lane: a trace's extracted schedule plus the advancement
/// rule. The schedule (and the plan, when set) must outlive the run call.
/// The schedule is validated at run entry: a num_steps x 3 workload, and
/// finite t0 sensors and workload values (serve::is_finite policy), with
/// errors naming the lane index.
struct RolloutLane {
  const data::WorkloadSchedule* schedule = nullptr;
  LaneKind kind = LaneKind::kCascade;
  /// The lane's own Eq. 1 parameters (core::CellParams — the per-lane
  /// half of the per-cell parameter plane). Required core::is_valid for
  /// kPhysicsOnly, validated at run entry with an error naming the lane
  /// index — a NaN or Inf capacity would silently turn Eq. 1 into
  /// garbage, and the zeroed default forces physics lanes to set a real
  /// capacity explicitly (same contract the old loose capacity_ah had).
  core::CellParams params{.capacity_ah = 0.0};
  /// Optional closed-loop plan: scheduled Branch-1 re-anchors consumed
  /// mid-rollout (see the file comment). nullptr (default) or an empty
  /// plan is an open-loop lane. Validated at run entry: step indices
  /// strictly increasing and < schedule->num_steps(), sensor rows finite
  /// (serve::is_finite policy), errors name the lane index.
  const data::ReanchorPlan* reanchor = nullptr;
};

struct RolloutConfig {
  std::size_t threads = 0;  ///< worker threads; 0 = hardware_concurrency
  /// Clamp every stored SoC — the Branch-1 seed and each per-window
  /// prediction — into [0, 1], as real BMS logic would. This is the single
  /// clamping knob of every rollout path: core::rollout_cascade,
  /// core::rollout_physics_only and FleetEngine route through it.
  /// Default: on.
  bool clamp_soc = true;
  /// Scalar type of the per-step NN forwards. Both precisions serve a
  /// snapshot of the net (weights + scaler stats converted once, at
  /// construction or swap_model) through feature-major panels of at most
  /// nn::kColumnsTile columns, a tail below nn::kColumnsMinBatch columns
  /// zero-padded up to it, so a thin tail or a batch-of-1 run computes a
  /// 32-column panel per step. kFloat64 (default) is bitwise identical to
  /// the net's own forwards. kFloat32 has ~2x SIMD width on the per-step
  /// panels and SoC within ~1e-5 of f64 on the paper's traces (tests pin
  /// 1e-4); it requires a trained net (fitted scalers), and constructing
  /// with an untrained net throws std::invalid_argument naming this knob.
  /// Physics-only lanes always advance in f64 (Eq. 1 is three flops;
  /// there is nothing to vectorize).
  core::Precision precision = core::Precision::kFloat64;
};

/// Model ownership and hot-swap (swap_model, model), simd_isa() and
/// num_threads() come from the shared serve::EngineCore. A run acquires the
/// model exactly once, at its top, so every shard and step of one run
/// serves the same model and a concurrent swap lands on the next run.
class RolloutEngine : public EngineCore {
 public:
  /// Converts `net` once into a snapshot at RolloutConfig::precision — the
  /// caller's net does NOT need to outlive the engine and may keep
  /// training. Arguments are validated before the thread pool spawns
  /// workers.
  explicit RolloutEngine(const core::TwoBranchNet& net,
                         RolloutConfig config = {});

  /// Rolls every lane to the end of its schedule in one lockstep pass.
  /// Returns one trajectory per lane, in lane order.
  [[nodiscard]] std::vector<core::Rollout> run(
      std::span<const RolloutLane> lanes);

  /// All-cascade convenience: one NN lane per schedule.
  [[nodiscard]] std::vector<core::Rollout> run(
      std::span<const data::WorkloadSchedule> schedules);

  /// Allocation-free variant: writes into caller-owned trajectories
  /// (`out.size() == lanes.size()`), reusing their vector capacity. After
  /// one warm-up run over a fleet, repeat runs perform zero heap
  /// allocations (tests/serve/test_alloc_free.cpp enforces this).
  void run_into(std::span<const RolloutLane> lanes,
                std::span<core::Rollout> out);

  /// Batch-of-1 convenience backing the legacy core:: wrappers. Pass a
  /// plan for a closed-loop single-trace rollout (core::rollout_closed_loop
  /// routes through this).
  [[nodiscard]] core::Rollout run_single(
      const data::WorkloadSchedule& schedule,
      LaneKind kind = LaneKind::kCascade,
      const core::CellParams& params = {.capacity_ah = 0.0},
      const data::ReanchorPlan* reanchor = nullptr);

  [[nodiscard]] const RolloutConfig& config() const { return config_; }

 private:
  /// Per-shard scratch: gather staging and per-lane SoC state, aligned so
  /// neighbouring shards never share a cache line (the vector headers are
  /// written every step).
  struct alignas(64) ShardScratch {
    std::vector<double> soc;            ///< current SoC per local lane
    std::vector<std::size_t> gather;    ///< local lane index per column
    std::vector<std::size_t> plan_pos;  ///< next plan entry per local lane
    std::vector<std::size_t> pending;   ///< local lanes re-anchoring now
  };

  /// One shard of run_into: the seed, every re-anchor and every step is
  /// one EngineCore::forward of a snapshot branch at T.
  template <typename T>
  void roll_shard(const core::TwoBranchSnapshotT<T>& model,
                  core::InferenceWorkspaceT<T>& ws, ShardScratch& s,
                  std::span<const RolloutLane> lanes,
                  std::span<core::Rollout> out, std::size_t begin,
                  std::size_t end) SOCPINN_REQUIRES(shard_exec_);

  /// Phantom shard-execution capability (see util::ThreadRole and the
  /// FleetEngine twin): roll_shard REQUIRES it and only run_into's
  /// shard-body lambda enters it, so the per-shard scratch cannot
  /// silently grow callers outside the sharded run.
  util::ThreadRole shard_exec_;

  RolloutConfig config_;
  std::vector<ShardScratch> scratch_;  ///< one per pool thread
};

}  // namespace socpinn::serve
