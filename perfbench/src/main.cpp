/// \file main.cpp
/// perfbench: the repository benchmark. One process runs one workload:
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--spans-out <path>]
///
/// With --trace 0 it prints the end-to-end metrics; with --trace 1 the
/// per-layer metrics of the layer ladder and the traced loop (and writes
/// the spans to --spans-out). The last stdout line is one JSON object:
/// {"correct", "attempted", "failed", "metrics"}; the line before it holds
/// the run metadata (ISA, build flavor, compiler, nproc, seed).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "nn/panel_dispatch.hpp"
#include "workloads.hpp"

namespace {

/// Build flavor from the ISA macros the library's PUBLIC -march=native
/// defines in this TU: numbers from different flavors are never compared.
const char* build_flavor() {
#if defined(__AVX2__) || defined(__AVX512F__)
  return "native";
#elif defined(__x86_64__) || defined(__i386__)
  return "portable";
#else
  return "unknown";
#endif
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

void print_metrics(const std::vector<perfbench::Metric>& metrics) {
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans-out <path>]\nworkloads:");
  for (const std::string& w : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* val = argv[++i];
    if (std::strcmp(arg, "--workload") == 0) {
      config.workload = val;
    } else if (std::strcmp(arg, "--seed") == 0) {
      config.seed = std::strtoull(val, nullptr, 10);
    } else if (std::strcmp(arg, "--seconds") == 0) {
      config.seconds = std::strtod(val, nullptr);
    } else if (std::strcmp(arg, "--trace") == 0) {
      config.trace = std::strcmp(val, "0") != 0;
    } else if (std::strcmp(arg, "--spans-out") == 0) {
      config.spans_out = val;
    } else {
      return usage();
    }
  }
  if (config.workload.empty() || !(config.seconds > 0.0)) return usage();

  perfbench::RunResult res;
  try {
    res = perfbench::run_workload(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  namespace simd = socpinn::nn::simd;
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"isa\": \"%s\", \"build_flavor\": \"%s\", "
      "\"compiler\": \"%s\", \"nproc\": %u}, \"diagnostics\": {",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      config.seconds, config.trace ? 1 : 0,
      simd::isa_name(simd::active_isa()), build_flavor(), compiler(),
      std::thread::hardware_concurrency());
  print_metrics(res.diagnostics);
  std::printf("}}\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              res.correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  print_metrics(res.metrics);
  std::printf("}}\n");
  return 0;
}
