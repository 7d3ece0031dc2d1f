#pragma once
/// \file net_snapshot.hpp
/// Serving snapshot of a trained TwoBranchNet, at f64 or f32.
///
/// The paper's pitch is a model cheap enough for embedded BMS silicon;
/// like related PINN estimators we keep training in f64 and serve from a
/// converted copy: TwoBranchSnapshotT captures both branches' weights and
/// scaler moments ONCE (at load), converted to the target scalar, and
/// serves them through the feature-major panel kernels — the one forward
/// path of RolloutEngine / FleetEngine. The source net is never written.
/// At T = double the snapshot is bitwise identical to the net's own
/// forwards; at T = float it tracks them within ~1e-5 SoC on the paper's
/// traces (far below the ~1-2% RMSE signal), at roughly twice the panel
/// throughput.

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

#include "core/two_branch_net.hpp"
#include "nn/panel.hpp"
#include "util/sync.hpp"

namespace socpinn::core {

/// Scalar type of the serve-side forward. Both precisions run the same
/// feature-major panel path through a TwoBranchSnapshotT<T> converted once
/// per snapshot: kFloat64 is bitwise identical to the trained net's own
/// forwards, kFloat32 trades ~1e-5 SoC for panel throughput.
enum class Precision {
  kFloat64,
  kFloat32,
};

/// One branch of a serving snapshot: the scaler that standardizes its raw
/// feature-major input, then the MLP that maps that to one SoC per column.
template <typename T>
struct BranchSnapshotT {
  nn::MlpSnapshotT<T> mlp;
  nn::ScalerStatsT<T> scaler;

  /// F x n raw `columns` (batch as the unit-stride axis) -> 1 x n SoC,
  /// pointing into `ws` until its next forward of either branch.
  const nn::MatrixT<T>& forward(const nn::MatrixT<T>& columns,
                                InferenceWorkspaceT<T>& ws) const {
    scaler.transform_columns_into(columns, ws.scaled);
    return mlp.infer_columns(ws.scaled, ws.layers);
  }
};

/// Immutable T-precision twin of a trained TwoBranchNet, run with an
/// InferenceWorkspaceT<T> (two_branch_net.hpp). At T = double it runs the
/// same kernel as the net's own forward over copied weights, with each
/// ReLU after a dense layer fused into that layer's kernel epilogue
/// (nn::MlpSnapshotT), so the two agree bitwise.
template <typename T>
class TwoBranchSnapshotT {
 public:
  /// Converts weights and scaler stats once. Like the net itself, a net
  /// whose scalers are not fitted still converts, and each branch's
  /// forward throws std::logic_error until that branch's scaler is fitted
  /// (a Physics-Only model trains Branch 1 alone and serves its estimates).
  /// A net that could never serve throws std::invalid_argument here, so no
  /// engine ever publishes it: a branch whose dense layers do not chain or
  /// hold a weight that is not finite at T (MlpSnapshotT::from), a Branch 1
  /// whose first dense layer does not take 3 inputs or a Branch 2 whose
  /// does not take 4, a branch whose last dense layer does not output one
  /// SoC, or a fitted scaler with a different feature count than its
  /// branch.
  explicit TwoBranchSnapshotT(const TwoBranchNet& net)
      : branch1_{nn::MlpSnapshotT<T>::from(net.branch1()),
                 stats(net.scaler1())},
        branch2_{nn::MlpSnapshotT<T>::from(net.branch2()),
                 stats(net.scaler2())} {
    require_shape("Branch 1", branch1_.mlp, branch1_.scaler, 3);
    require_shape("Branch 2", branch2_.mlp, branch2_.scaler, 4);
  }

  /// Branch 1: [V; I; T] sensors -> SoC(t).
  [[nodiscard]] const BranchSnapshotT<T>& branch1() const { return branch1_; }
  /// Branch 2: [SoC; avg I; avg T; N] -> SoC(t+N).
  [[nodiscard]] const BranchSnapshotT<T>& branch2() const { return branch2_; }

  /// Branch-1 panel: sensors_columns is 3 x n -> 1 x n estimated SoC(t).
  const nn::MatrixT<T>& estimate_columns(const nn::MatrixT<T>& sensors_columns,
                                         InferenceWorkspaceT<T>& ws) const {
    return branch1_.forward(sensors_columns, ws);
  }

  /// Branch-2 panel: branch2_columns is 4 x n -> 1 x n SoC(t+N).
  const nn::MatrixT<T>& predict_columns(const nn::MatrixT<T>& branch2_columns,
                                        InferenceWorkspaceT<T>& ws) const {
    return branch2_.forward(branch2_columns, ws);
  }

 private:
  /// Empty stats for an unfitted scaler: their transform throws.
  static nn::ScalerStatsT<T> stats(const nn::StandardScaler& scaler) {
    return scaler.fitted() ? nn::ScalerStatsT<T>::from(scaler)
                           : nn::ScalerStatsT<T>{};
  }

  /// Throws std::invalid_argument unless `branch` takes `features` inputs
  /// and outputs one value, and `scaler`, when fitted, standardizes
  /// exactly `features`.
  static void require_shape(const char* name,
                            const nn::MlpSnapshotT<T>& branch,
                            const nn::ScalerStatsT<T>& scaler,
                            std::size_t features) {
    const std::string who = std::string("TwoBranchSnapshot: ") + name;
    if (branch.in_features() != features) {
      throw std::invalid_argument(
          who + " takes " + std::to_string(branch.in_features()) +
          " inputs, expected " + std::to_string(features));
    }
    if (branch.out_features() != 1) {
      throw std::invalid_argument(
          who + " outputs " + std::to_string(branch.out_features()) +
          " values, expected 1");
    }
    if (scaler.num_features() != 0 && scaler.num_features() != features) {
      throw std::invalid_argument(
          who + " scaler has " + std::to_string(scaler.num_features()) +
          " features, expected " + std::to_string(features));
    }
  }

  BranchSnapshotT<T> branch1_;
  BranchSnapshotT<T> branch2_;
};

extern template class TwoBranchSnapshotT<float>;
extern template class TwoBranchSnapshotT<double>;

using TwoBranchSnapshotF32 = TwoBranchSnapshotT<float>;

/// Single source of truth for the f32 backend's precondition: a
/// reduced-precision model is a deployment artifact, so it must come from a
/// trained net (fitted scalers). Throws std::invalid_argument with `knob`
/// naming the configuration knob the caller should look at — the engines
/// pass their own config field so the error reads as
/// "FleetConfig::precision ..." at engine construction.
inline void require_trained_for_f32(const TwoBranchNet& net,
                                    const char* knob) {
  if (!net.scaler1().fitted() || !net.scaler2().fitted()) {
    throw std::invalid_argument(
        std::string(knob) +
        " = Precision::kFloat32 requires a trained net (fitted scalers); "
        "fit or load a trained model first");
  }
}

/// Immutable serving model: the unit of RCU-style hot-swap. One snapshot
/// owns exactly one TwoBranchSnapshotT<T> for its precision, converted
/// once at construction — never the source net or its training caches, so
/// the caller's net can be retrained or freed the moment the constructor
/// returns. The serve engines hold snapshots behind an atomic
/// std::shared_ptr: swap_model() builds a new snapshot off the hot path
/// and publishes it between ticks, and in-flight shards finish on the old
/// one (kept alive by the tick's reference).
class TwoBranchSnapshot {
 public:
  /// Converts `net` at `precision`; all the conversion cost lands here,
  /// never on the tick path. kFloat32 requires a trained net with fitted
  /// scalers (throws std::invalid_argument naming the requirement
  /// otherwise). A kFloat64 snapshot of a net without fitted scalers still
  /// constructs, so engines can be built before training; serving it
  /// throws std::logic_error, like the net's own inference.
  TwoBranchSnapshot(const TwoBranchNet& net, Precision precision);

  [[nodiscard]] Precision precision() const {
    return std::holds_alternative<TwoBranchSnapshotT<float>>(forward_)
               ? Precision::kFloat32
               : Precision::kFloat64;
  }

  /// Calls f(forward) with this snapshot's TwoBranchSnapshotT<double> or
  /// TwoBranchSnapshotT<float>: the serve engines write one shard body
  /// templated on T and pick its instantiation here, once per call.
  template <typename F>
  void visit(F&& f) const {
    std::visit(std::forward<F>(f), forward_);
  }

 private:
  std::variant<TwoBranchSnapshotT<double>, TwoBranchSnapshotT<float>>
      forward_;
};

/// Atomically swappable owner of the current serving snapshot — the RCU
/// publication point of the serve engines. load() hands out a shared_ptr
/// copy (a tick/run holds it for its whole duration, so a swapped-out
/// model stays alive until the last in-flight user drops it); store()
/// publishes a new snapshot for the NEXT load. Internally a mutex guards
/// only the pointer copy/swap — never inference, never conversion — so
/// the critical section is a few instructions per tick, amortized over a
/// whole sharded batch. (std::atomic<std::shared_ptr> is the same thing
/// as a library spinlock, but current libstdc++ lacks the TSan annotations
/// for it; an explicit mutex keeps the whole serve layer provable by the
/// thread sanitizer, which this repo runs in CI. The util::Mutex wrapper
/// additionally makes the guard visible to clang's -Wthread-safety, so an
/// unlocked touch of snapshot_ is a compile error there, not just a
/// hoped-for TSan catch.)
class SnapshotHandle {
 public:
  explicit SnapshotHandle(std::shared_ptr<const TwoBranchSnapshot> snapshot)
      : snapshot_(std::move(snapshot)) {}

  SnapshotHandle(const SnapshotHandle&) = delete;
  SnapshotHandle& operator=(const SnapshotHandle&) = delete;

  [[nodiscard]] std::shared_ptr<const TwoBranchSnapshot> load() const
      SOCPINN_EXCLUDES(mu_) {
    const util::MutexLock lock(mu_);
    return snapshot_;
  }

  void store(std::shared_ptr<const TwoBranchSnapshot> next)
      SOCPINN_EXCLUDES(mu_) {
    // Swap inside the lock, release the old reference outside it: if this
    // was the last reference to the replaced model, its destructor must
    // not run in the critical section.
    std::shared_ptr<const TwoBranchSnapshot> old;
    {
      const util::MutexLock lock(mu_);
      old = std::move(snapshot_);
      snapshot_ = std::move(next);
    }
  }

 private:
  mutable util::Mutex mu_;
  std::shared_ptr<const TwoBranchSnapshot> snapshot_
      SOCPINN_GUARDED_BY(mu_);
};

}  // namespace socpinn::core
