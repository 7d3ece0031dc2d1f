#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "nn/scaler.hpp"
#include "serve/mailbox.hpp"

namespace perfbench {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

enum Tag : std::uint64_t {
  kTagWorkload = 1,
  kTagSensors = 2,
  kTagModes = 3,
  kTagStream = 4,
  kTagLanes = 5,
};

/// Uniformly sampled synthetic discharge trace: plausible values, no
/// simulator (rollout cost does not depend on physical consistency).
sp::data::Trace synthetic_trace(std::size_t n, sp::util::Rng& rng) {
  sp::data::Trace trace;
  trace.reserve(n);
  double soc = rng.uniform(0.85, 1.0);
  const double phase = rng.uniform(0.0, 6.28);
  const double mean_current = rng.uniform(-3.0, -1.0);
  for (std::size_t i = 0; i < n; ++i) {
    sp::data::TracePoint p;
    p.time_s = kTracePeriodS * static_cast<double>(i);
    p.current = mean_current +
                1.2 * std::sin(0.13 * static_cast<double>(i) + phase) +
                rng.uniform(-0.2, 0.2);
    p.temp_c = 25.0 + 4.0 * std::sin(0.02 * static_cast<double>(i) + phase);
    p.voltage = 3.0 + 1.2 * soc + rng.uniform(-0.01, 0.01);
    p.soc = soc;
    trace.push_back(p);
    soc = std::max(0.0, soc - 0.9 / static_cast<double>(n));
  }
  return trace;
}

}  // namespace

sp::util::Rng stream_rng(std::uint64_t seed, std::uint64_t tag) {
  return sp::util::Rng(splitmix64(splitmix64(seed) ^ tag));
}

sp::core::TwoBranchNet make_net(std::uint64_t model_seed) {
  sp::core::TwoBranchNet net({}, model_seed);
  net.scaler1() = sp::nn::StandardScaler::from_moments({3.7, -1.5, 25.0},
                                                       {0.3, 2.0, 8.0});
  net.scaler2() = sp::nn::StandardScaler::from_moments(
      {0.5, -1.5, 25.0, 300.0}, {0.25, 2.0, 8.0, 170.0});
  return net;
}

sp::nn::Matrix workload_rows(std::size_t n, std::uint64_t seed) {
  sp::util::Rng rng = stream_rng(seed, kTagWorkload);
  sp::nn::Matrix m(n, 3);
  for (std::size_t r = 0; r < n; ++r) {
    m(r, 0) = rng.uniform(-6.0, 3.0);
    m(r, 1) = rng.uniform(-5.0, 45.0);
    m(r, 2) = rng.uniform(10.0, 600.0);
  }
  return m;
}

sp::nn::Matrix sensor_rows(std::size_t n, std::uint64_t seed) {
  sp::util::Rng rng = stream_rng(seed, kTagSensors);
  sp::nn::Matrix m(n, 3);
  for (std::size_t r = 0; r < n; ++r) {
    m(r, 0) = rng.uniform(2.8, 4.2);
    m(r, 1) = rng.uniform(-6.0, 3.0);
    m(r, 2) = rng.uniform(-5.0, 45.0);
  }
  return m;
}

std::vector<sp::serve::CellMode> cell_modes(std::size_t n,
                                            std::size_t physics_every,
                                            std::uint64_t seed) {
  std::vector<sp::serve::CellMode> modes(n, sp::serve::CellMode::kCascade);
  if (physics_every == 0) return modes;
  sp::util::Rng rng = stream_rng(seed, kTagModes);
  const std::vector<std::size_t> order = rng.permutation(n);
  for (std::size_t i = 0; i < n / physics_every; ++i) {
    modes[order[i]] = sp::serve::CellMode::kPhysicsOnly;
  }
  return modes;
}

MessageStream::MessageStream(MsgKind kind,
                             const std::vector<std::size_t>& targets,
                             double rate_hz, double nonfinite_share,
                             std::uint64_t seed)
    : kind_(kind), rate_hz_(rate_hz) {
  if (targets.empty() || !(rate_hz_ > 0.0)) {
    throw std::invalid_argument("MessageStream: need targets and a rate");
  }
  sp::util::Rng rng =
      stream_rng(seed, kTagStream + 16 * static_cast<std::uint64_t>(kind));
  pool_.resize(kMessagePool);
  for (std::size_t i = 0; i < kMessagePool; ++i) {
    Message& m = pool_[i];
    m.cell = targets[rng.index(targets.size())];
    switch (kind_) {
      case MsgKind::kSensors:
        m.a = rng.uniform(2.8, 4.2);
        m.b = rng.uniform(-6.0, 3.0);
        m.c = rng.uniform(-5.0, 45.0);
        break;
      case MsgKind::kWorkload:
        m.a = rng.uniform(-6.0, 3.0);
        m.b = rng.uniform(-5.0, 45.0);
        m.c = rng.uniform(10.0, 600.0);
        break;
      case MsgKind::kParams:
        m.a = rng.uniform(2.0, 3.2);
        m.b = rng.uniform(0.9, 1.0);
        m.c = 0.0;
        break;
    }
    if (rng.uniform() < nonfinite_share) {
      double* fields[3] = {&m.a, &m.b, &m.c};
      *fields[i % 3] = std::numeric_limits<double>::quiet_NaN();
    }
  }
}

bool drain_accepts(MsgKind kind, const Message& m) {
  switch (kind) {
    case MsgKind::kSensors:
      return sp::serve::is_finite(sp::serve::SensorReport{m.a, m.b, m.c});
    case MsgKind::kWorkload:
      return sp::serve::is_finite(sp::serve::WorkloadOverride{m.a, m.b, m.c});
    case MsgKind::kParams:
      return sp::serve::is_finite(sp::serve::ParamUpdate{m.a, m.b, m.c}) &&
             sp::core::is_valid(sp::core::CellParams{m.a, m.b});
  }
  return false;
}

RolloutInputs rollout_inputs(std::size_t lanes, std::size_t shards,
                             std::uint64_t seed) {
  if (shards == 0 || lanes % shards != 0) {
    throw std::invalid_argument("rollout_inputs: lanes must split evenly");
  }
  // Eight trace lengths (100..520 planning windows) crossed with an
  // eight-slot kind pattern: 6/8 open-loop cascade, 1/8 closed-loop
  // cascade, 1/8 physics-only.
  static constexpr std::size_t kLengths[8] = {401,  641,  881,  1121,
                                              1361, 1601, 1841, 2081};
  sp::util::Rng rng = stream_rng(seed, kTagLanes);
  RolloutInputs in;
  in.traces.reserve(lanes);
  const std::size_t per_shard = lanes / shards;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::vector<std::size_t> order = rng.permutation(per_shard);
    for (std::size_t j = 0; j < per_shard; ++j) {
      const std::size_t slot = order[j];
      const std::size_t kind_slot = (slot / 8) % 8;
      in.traces.push_back(synthetic_trace(kLengths[slot % 8], rng));
      in.kinds.push_back(kind_slot == 7 ? sp::serve::LaneKind::kPhysicsOnly
                                        : sp::serve::LaneKind::kCascade);
      in.closed_loop.push_back(kind_slot == 6 ? 1 : 0);
      in.params.push_back({rng.uniform(2.5, 3.2), rng.uniform(0.97, 1.0)});
    }
  }
  return in;
}

}  // namespace perfbench
