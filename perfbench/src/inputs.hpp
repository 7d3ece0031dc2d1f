#pragma once
/// \file inputs.hpp
/// Seeded input generation. Every input a workload feeds the program comes
/// from here and depends only on the workload seed (plus fixed shape
/// constants), so a figure can be rechecked on a held-out seed. The model
/// weights are fixed and do not depend on the seed: the seed varies what
/// the program is asked, never the program.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/cell_params.hpp"
#include "core/two_branch_net.hpp"
#include "data/trace.hpp"
#include "nn/matrix.hpp"
#include "serve/fleet_engine.hpp"
#include "serve/rollout_engine.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace sp = socpinn;

/// An independent generator stream for (seed, tag).
sp::util::Rng stream_rng(std::uint64_t seed, std::uint64_t tag);

/// The serving net: default 16/32/16 branches with deterministic weights
/// from `model_seed` and scaler moments set to the training data's
/// ranges, so no training run is needed (inference cost does not depend on
/// weight values).
sp::core::TwoBranchNet make_net(std::uint64_t model_seed);

/// The two serving models every workload uses (hot-swaps alternate them).
inline constexpr std::uint64_t kModelSeedA = 1;
inline constexpr std::uint64_t kModelSeedB = 2;

/// n x 3 Branch-2 workload rows [avg I, avg T, horizon_s].
sp::nn::Matrix workload_rows(std::size_t n, std::uint64_t seed);

/// n x 3 Branch-1 sensor rows [V, I, T].
sp::nn::Matrix sensor_rows(std::size_t n, std::uint64_t seed);

/// Exactly n / physics_every cells in kPhysicsOnly mode, at seeded
/// positions; the rest kCascade.
std::vector<sp::serve::CellMode> cell_modes(std::size_t n,
                                            std::size_t physics_every,
                                            std::uint64_t seed);

enum class MsgKind : std::uint8_t { kSensors = 0, kWorkload = 1, kParams = 2 };

/// One mailbox message: target cell plus the kind's three payload doubles,
/// and its index in its stream (which fixes its due time).
struct Message {
  std::size_t cell = 0;
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
  std::uint64_t seq = 0;
};

/// Messages a stream draws up front and then cycles through.
inline constexpr std::size_t kMessagePool = std::size_t{1} << 15;

/// Seeded open-loop stream of one message kind at a fixed rate: message k
/// is due k / rate_hz seconds after the stream starts. The messages cycle
/// through a pool of kMessagePool drawn once from the seed, each to a seeded
/// cell of `targets` and non-finite with probability `nonfinite_share`, so
/// emitting one between ticks costs a copy rather than a draw.
class MessageStream {
 public:
  MessageStream(MsgKind kind, const std::vector<std::size_t>& targets,
                double rate_hz, double nonfinite_share, std::uint64_t seed);

  [[nodiscard]] MsgKind kind() const { return kind_; }
  [[nodiscard]] double due_s(std::uint64_t seq) const {
    return static_cast<double>(seq) / rate_hz_;
  }
  [[nodiscard]] double next_due_s() const { return due_s(index_); }
  [[nodiscard]] std::uint64_t emitted() const { return index_; }

  /// The next message of the stream (advances it).
  Message next() {
    Message m = pool_[index_ % pool_.size()];
    m.seq = index_++;
    return m;
  }

  /// Replays the stream from its first message.
  void restart() { index_ = 0; }

 private:
  MsgKind kind_;
  double rate_hz_;
  std::vector<Message> pool_;
  std::uint64_t index_ = 0;
};

/// Whether the drain accepts `m` (serve::is_finite, plus core::is_valid
/// for param updates).
bool drain_accepts(MsgKind kind, const Message& m);

/// Planning lanes of the rollout workload. Each shard of `shards` equal
/// lane ranges receives the same multiset of (trace length, lane kind)
/// pairs in a seeded order, so per-shard work is identical for every seed
/// while every trace value and lane position varies with it.
struct RolloutInputs {
  std::vector<sp::data::Trace> traces;
  std::vector<sp::serve::LaneKind> kinds;
  std::vector<std::uint8_t> closed_loop;  ///< re-anchors every 8 windows
  std::vector<sp::core::CellParams> params;
};

RolloutInputs rollout_inputs(std::size_t lanes, std::size_t shards,
                             std::uint64_t seed);

/// Sampling period of the synthetic traces and the rollout planning window.
inline constexpr double kTracePeriodS = 30.0;
inline constexpr double kRolloutHorizonS = 120.0;
inline constexpr std::size_t kReanchorEvery = 8;

}  // namespace perfbench
