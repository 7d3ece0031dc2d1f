#pragma once
/// \file engine_core.hpp
/// The serving core under both engines. FleetEngine and RolloutEngine
/// differ in what they advance (a fleet's cells per tick, a rollout's lanes
/// per lockstep step) but not in how: both hold an RCU snapshot of the net,
/// shard their batch contiguously across a ThreadPool with one workspace
/// per shard, and run every Branch-1 / Branch-2 forward as feature-major
/// panels of at most nn::kColumnsTile columns (a tail below
/// nn::kColumnsMinBatch zero-padded up to it) whose results are written
/// back through one clamp policy. EngineCore owns exactly that shell, so
/// each engine only says what it stages and where each SoC goes.
///
/// Shard boundaries depend on nothing but (n, num_threads()), and every
/// panel column is computed independently of its neighbours, of the tile
/// it lands in and of the pad, so results are bitwise identical for any
/// thread count and any shard width. Tiling keeps a shard's activations
/// L1-resident and its workspace at tile size whatever the shard width:
/// after one forward of each branch over at least nn::kColumnsTile columns
/// the core allocates nothing.

#include <algorithm>
#include <cstddef>
#include <memory>
#include <tuple>
#include <type_traits>
#include <vector>

#include "core/net_snapshot.hpp"
#include "core/two_branch_net.hpp"
#include "nn/panel.hpp"
#include "nn/panel_columns.hpp"
#include "serve/mailbox.hpp"
#include "serve/thread_pool.hpp"
#include "util/annotations.hpp"
#include "util/math.hpp"

namespace socpinn::serve {

/// Whether every field of a row-major `num_rows` x `width` batch is finite.
[[nodiscard]] bool rows_finite(const double* rows, std::size_t num_rows,
                               std::size_t width = 3);

/// The synchronous side of the serve::is_finite policy for row-major
/// `num_rows` x `width` batches (3 for sensor or workload rows, 1 for
/// seeded SoC values): throws std::invalid_argument
/// "<who>: non-finite <row_name> <r>" for the first row r with a NaN or
/// Inf field. Callers run it before any state changes, so a rejected batch
/// leaves the engine exactly as it was.
void require_finite_rows(const double* rows, std::size_t num_rows,
                         const char* who, const char* row_name,
                         std::size_t width = 3);

class EngineCore {
 public:
  /// RCU-style model hot-swap: snapshots `net` at the engine's precision
  /// on the calling thread (the expensive part — the weight and scaler
  /// conversion) and atomically publishes it. A tick or run already in
  /// flight finishes on the old snapshot; the next one serves the new one.
  /// Safe to call from any thread, concurrently with ticks and runs.
  void swap_model(const core::TwoBranchNet& net);

  /// Hot-swap to a pre-built snapshot (shareable across engines, so a
  /// fleet of engines converts a retrained model once). The snapshot's
  /// precision must match the engine config's `precision`.
  void swap_model(std::shared_ptr<const core::TwoBranchSnapshot> snapshot);

  /// The currently published model snapshot.
  [[nodiscard]] std::shared_ptr<const core::TwoBranchSnapshot> model() const {
    return model_.load();
  }

  /// The panel-kernel ISA every forward of this process dispatches to
  /// ("scalar", "avx2", "avx512", or "neon" — nn/panel_dispatch.hpp:
  /// detection order AVX-512 > AVX2 > NEON > scalar, overridable via
  /// SOCPINN_FORCE_ISA). Dispatch never changes results — every ISA's f64
  /// kernel is bitwise identical to the scalar reference — so this is a
  /// reporting surface for dashboards and bench logs, not a knob.
  [[nodiscard]] const char* simd_isa() const;

  [[nodiscard]] std::size_t num_threads() const { return pool_.size(); }

 protected:
  /// Validates, then converts `net` once at `precision` — the caller's net
  /// may be retrained or freed as soon as this returns. kFloat32 needs a
  /// trained net: the std::invalid_argument names `engine` and
  /// `precision_knob` (e.g. "FleetEngine: FleetConfig::precision ...").
  /// The panel-kernel ISA resolves here too, so a bad SOCPINN_FORCE_ISA
  /// throws on the caller's thread. Both checks run before the pool spawns
  /// workers: a bad argument never costs thread creation.
  EngineCore(const core::TwoBranchNet& net, std::size_t threads,
             core::Precision precision, bool clamp_soc, const char* engine,
             const char* precision_knob);

  /// The one write-back policy of every stored SoC — Branch-1 estimates,
  /// Branch-2 predictions, Eq. 1 advances and directly seeded values:
  /// clamped into [0, 1] unless the config's clamp_soc is off.
  [[nodiscard]] double clamp_soc(double raw) const {
    return clamp_ ? util::clamp01(raw) : raw;
  }

  /// Runs body(model, ws, shard, begin, end) over [0, n) split into
  /// num_threads() contiguous shards, where `model` is the current
  /// snapshot's TwoBranchSnapshotT<T> (acquired once, so every shard of
  /// the call serves the same model and a concurrent swap lands on the
  /// next call whole) and `ws` the shard's InferenceWorkspaceT<T>.
  template <typename Body>
  void for_each_shard(std::size_t n, Body&& body) {
    const std::shared_ptr<const core::TwoBranchSnapshot> model = model_.load();
    model->visit([&](const auto& forward) {
      pool_.parallel_for(
          n, [&](std::size_t shard, std::size_t begin, std::size_t end) {
            body(forward, workspace(shard, forward), shard, begin, end);
          });
    });
  }

  /// The calling-thread twin of for_each_shard: body(model, ws) on shard
  /// 0's workspace, for synchronous entry points that must not be called
  /// concurrently with ticks anyway.
  template <typename Body>
  void on_calling_thread(Body&& body) {
    const std::shared_ptr<const core::TwoBranchSnapshot> model = model_.load();
    model->visit([&](const auto& forward) {
      body(forward, workspace(0, forward));
    });
  }

  /// One batched forward of `branch` over n columns: column(i) returns
  /// column i's raw features as a std::array<double, F> (F = 3 sensors for
  /// Branch 1, 4 for Branch 2), and store(i, soc) receives its clamped
  /// output. Columns run in nn::kColumnsTile-wide tiles, each staged,
  /// forwarded and written back before the next is staged, so store(i)
  /// may overwrite only state that column(i) reads — never a later
  /// column's. Both branches share the workspace's one input panel and
  /// one set of layer panels, which is safe because forward never returns
  /// before its last write-back.
  template <typename T, typename Column, typename Store>
  SOCPINN_HOT void forward(const core::BranchSnapshotT<T>& branch,
                           core::InferenceWorkspaceT<T>& ws, std::size_t n,
                           Column&& column, Store&& store) const {
    using Features = std::invoke_result_t<Column&, std::size_t>;
    constexpr std::size_t kFeatures = std::tuple_size_v<Features>;
    for (std::size_t begin = 0; begin < n; begin += nn::kColumnsTile) {
      const std::size_t w = std::min(nn::kColumnsTile, n - begin);
      // SOCPINN_HOT_ALLOW(resize): warm capacity after one forward of each
      // branch over kColumnsTile columns (test_alloc_free.cpp probes it)
      ws.input.resize(kFeatures, std::max(w, nn::kColumnsMinBatch));
      for (std::size_t i = 0; i < w; ++i) {
        const Features x = column(begin + i);
        for (std::size_t f = 0; f < kFeatures; ++f) {
          ws.input(f, i) = static_cast<T>(x[f]);
        }
      }
      nn::zero_pad_columns(ws.input, w);
      const nn::MatrixT<T>& out = branch.forward(ws.input, ws);
      for (std::size_t i = 0; i < w; ++i) {
        store(begin + i, clamp_soc(static_cast<double>(out(0, i))));
      }
    }
  }

 private:
  using Workspaces = std::tuple<core::InferenceWorkspaceT<double>,
                                core::InferenceWorkspaceT<float>>;

  /// Shard `shard`'s workspace at the snapshot's precision (the other
  /// precision's stays empty).
  template <typename T>
  core::InferenceWorkspaceT<T>& workspace(
      std::size_t shard, const core::TwoBranchSnapshotT<T>& /*model*/) {
    return std::get<core::InferenceWorkspaceT<T>>(workspaces_[shard]);
  }

  const char* engine_;
  const char* precision_knob_;
  core::Precision precision_;
  bool clamp_;
  /// RCU publication point: every for_each_shard / on_calling_thread call
  /// acquires exactly once, swap_model stores. Snapshots are immutable;
  /// old ones die when the last in-flight call drops its reference.
  core::SnapshotHandle model_;
  ThreadPool pool_;
  std::vector<Workspaces> workspaces_;  ///< one per pool shard
};

}  // namespace socpinn::serve
