#pragma once
/// \file ladder.hpp
/// The layer ladder: the same Branch-2 forward timed from outside at each
/// system layer, on the batch width a workload uses —
///   kernel (nn::dense_forward_columns over the dense layers)
///   -> MLP panel (Mlp::infer_columns, dense + activation)
///   -> cascade (TwoBranchNet::predict_batch_columns, scale + MLP)
///   -> FleetEngine tick at 1 thread (stage, drain scan, write-back, physics)
///   -> FleetEngine tick at the workload's thread count (pool dispatch)
///   -> ShardedFleet tick (command round trip, scatter/gather).
/// The difference between adjacent rungs is that layer's self time. Beside
/// the ladder sit single-call probes of the other public layers (scaler,
/// Branch 1, Eq. 1, snapshot build, model_io, pool, mailbox, rollout).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/net_snapshot.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

struct LadderShape {
  std::size_t width = 0;         ///< per-shard batch width of the workload
  std::size_t reseed_width = 0;  ///< Branch-1 re-seed batch width
  std::size_t threads = 2;       ///< shards per tick
  std::size_t physics_every = 0; ///< 1 in N cells physics-only (0 = none)
  socpinn::core::Precision precision = socpinn::core::Precision::kFloat64;
  std::uint64_t seed = 1;
};

/// Runs every rung within about `budget_s` seconds and returns the
/// per-layer metrics. Each rung is one span (parent: the ladder span).
std::vector<Metric> run_ladder(const LadderShape& shape, double budget_s,
                               SpanRecorder* rec);

}  // namespace perfbench
