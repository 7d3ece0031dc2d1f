#pragma once
/// Shared fixtures for the inference-path test suites: a TwoBranchNet with
/// deterministic weights and hand-set scaler moments (no training needed),
/// random raw-input generators matching each branch's column order, and a
/// synthetic discharge-trace factory for rollout/fleet tests.

#include <cmath>
#include <memory>
#include <utility>

#include "core/two_branch_net.hpp"
#include "data/trace.hpp"
#include "util/rng.hpp"

namespace socpinn::testing {

/// Net with fitted scalers; equal seeds give identical weights.
inline core::TwoBranchNet make_fitted_net(std::uint64_t seed) {
  core::TwoBranchNet net({}, seed);
  net.scaler1() = nn::StandardScaler::from_moments({3.7, -1.5, 25.0},
                                                   {0.3, 2.0, 8.0});
  net.scaler2() = nn::StandardScaler::from_moments(
      {0.5, -1.5, 25.0, 45.0}, {0.25, 2.0, 8.0, 18.0});
  return net;
}

/// A fitted net no engine can serve: its Branch 2 is Dense(4->16), ReLU,
/// Dense(20->1), so the second dense layer does not chain onto the first.
inline core::TwoBranchNet make_mischained_net(std::uint64_t seed) {
  core::TwoBranchNet net = make_fitted_net(seed);
  util::Rng rng(seed);
  nn::Mlp branch2;
  branch2.add(std::make_unique<nn::Dense>(4, 16, rng));
  branch2.add(std::make_unique<nn::Activation>(nn::ActivationKind::kRelu));
  branch2.add(std::make_unique<nn::Dense>(20, 1, rng));
  net.branch2() = std::move(branch2);
  return net;
}

/// n x 3 raw Branch-1 input: [V, I, T].
inline nn::Matrix random_sensors(std::size_t n, util::Rng& rng) {
  nn::Matrix m(n, 3);
  for (std::size_t r = 0; r < n; ++r) {
    m(r, 0) = rng.uniform(2.8, 4.2);
    m(r, 1) = rng.uniform(-6.0, 3.0);
    m(r, 2) = rng.uniform(-5.0, 45.0);
  }
  return m;
}

/// n x 4 raw Branch-2 input: [SoC, avg I, avg T, N].
inline nn::Matrix random_branch2(std::size_t n, util::Rng& rng) {
  nn::Matrix m(n, 4);
  for (std::size_t r = 0; r < n; ++r) {
    m(r, 0) = rng.uniform(0.0, 1.0);
    m(r, 1) = rng.uniform(-6.0, 3.0);
    m(r, 2) = rng.uniform(-5.0, 45.0);
    m(r, 3) = rng.uniform(10.0, 600.0);
  }
  return m;
}

/// n x 3 raw workload: [avg I, avg T, horizon N].
inline nn::Matrix random_workload(std::size_t n, util::Rng& rng) {
  nn::Matrix m(n, 3);
  for (std::size_t r = 0; r < n; ++r) {
    m(r, 0) = rng.uniform(-6.0, 3.0);
    m(r, 1) = rng.uniform(-5.0, 45.0);
    m(r, 2) = rng.uniform(10.0, 600.0);
  }
  return m;
}

/// Uniformly sampled (30 s) synthetic discharge trace of `n` samples.
/// Values are plausible but not physically consistent — rollout numerics
/// do not care, and no simulator keeps these tests fast.
inline data::Trace synthetic_trace(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  data::Trace trace;
  trace.reserve(n);
  double soc = rng.uniform(0.85, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    data::TracePoint p;
    p.time_s = 30.0 * static_cast<double>(i);
    p.current = -2.0 + 1.2 * std::sin(0.13 * static_cast<double>(i)) +
                rng.uniform(-0.2, 0.2);
    p.temp_c = 25.0 + 4.0 * std::sin(0.02 * static_cast<double>(i));
    p.voltage = 3.0 + 1.2 * soc + rng.uniform(-0.01, 0.01);
    p.soc = soc;
    trace.push_back(p);
    soc = std::max(0.0, soc - 0.9 / static_cast<double>(n));
  }
  return trace;
}

/// Ragged fleet of synthetic traces: lengths cycle through a small set so
/// lanes retire at different steps.
inline std::vector<data::Trace> synthetic_fleet(std::size_t lanes,
                                                std::uint64_t seed) {
  std::vector<data::Trace> fleet;
  fleet.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    const std::size_t n = 40 + 17 * (i % 5);
    fleet.push_back(synthetic_trace(n, seed + i));
  }
  return fleet;
}

}  // namespace socpinn::testing
