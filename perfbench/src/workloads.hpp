#pragma once
/// \file workloads.hpp
/// The benchmark's workloads and the run that measures one of them.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_out;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Sample counts and other context, printed beside the result.
  std::vector<Metric> diagnostics;
};

/// fleet_steady, fleet_ingest, rollout_planning, sharded_fleet.
const std::vector<std::string>& workload_names();

/// Runs one workload: set-up, the timed phase, and the correctness
/// checks. With config.trace the run instead measures per-layer metrics
/// (a short untraced phase, a traced phase and the layer ladder).
RunResult run_workload(const RunConfig& config);

}  // namespace perfbench
