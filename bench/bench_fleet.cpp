/// \file bench_fleet.cpp
/// The "serve heavy traffic" workload: one FleetEngine advancing the SoC of
/// N independent cells per planning tick with batched cascaded forwards,
/// sharded across a thread pool. Reports cells/second per fleet size and
/// thread count — the headline serving metric the ROADMAP scales against —
/// plus the per-tick latency a BMS backend would see.
///
/// Writes BENCH_fleet.json (same flat schema family as
/// BENCH_inference.json): tick latency, cells/second, the batched-tick
/// speedup over a per-cell scalar loop, the steady-state allocation
/// count, and the live-ingest section — mailbox publish throughput plus
/// the cost of a tick that drains a streaming fleet (10% of cells
/// reporting fresh sensors and workload overrides, or param updates, per
/// tick), each as a ratio of median tick times over interleaved plain and
/// ingest ticks — all threshold-checked in CI via
/// tools/check_bench_regression.py.
///
/// Options: --smoke (tiny reps for CI smoke runs; skips the Google
/// Benchmark sweep and only emits the JSON), plus the usual
/// --benchmark_* flags.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_support.hpp"
#include "serve/fleet_engine.hpp"
#include "util/math.hpp"
#include "util/timer.hpp"

namespace {

using namespace socpinn;
using benchsupport::random_workload;
using benchsupport::shared_net;

void BM_FleetTick(benchmark::State& state) {
  const auto cells = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  util::Rng rng(11);
  serve::FleetConfig config;
  config.threads = threads;
  serve::FleetEngine engine(shared_net(), cells, config);
  std::vector<double> soc(cells, 0.8);
  engine.set_soc(soc);
  const nn::Matrix workload = random_workload(cells, rng);
  engine.step(workload);  // warm every shard's workspace
  for (auto _ : state) {
    engine.step(workload);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cells));
  state.counters["cells"] = static_cast<double>(cells);
  state.counters["threads"] = static_cast<double>(engine.num_threads());
}
BENCHMARK(BM_FleetTick)
    ->ArgsProduct({{1024, 16384, 131072}, {1, 0}})  // 0 = hardware threads
    ->Unit(benchmark::kMicrosecond);

void BM_FleetConnect(benchmark::State& state) {
  // Cold-start path: batched Branch-1 estimates for a whole fleet joining
  // at once (sensors -> initial SoC).
  const auto cells = static_cast<std::size_t>(state.range(0));
  util::Rng rng(13);
  serve::FleetEngine engine(shared_net(), cells, {});
  nn::Matrix sensors(cells, 3);
  for (std::size_t r = 0; r < cells; ++r) {
    sensors(r, 0) = rng.uniform(3.2, 4.1);
    sensors(r, 1) = rng.uniform(-5.0, 1.0);
    sensors(r, 2) = rng.uniform(5.0, 40.0);
  }
  engine.init_from_sensors(sensors);
  for (auto _ : state) {
    engine.init_from_sensors(sensors);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cells));
}
BENCHMARK(BM_FleetConnect)->Arg(16384)->Unit(benchmark::kMicrosecond);

/// Median of `v`, which it reorders.
double median_ms(std::vector<double>& v) {
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

/// Tick latency / throughput + batched-vs-scalar speedup + steady-state
/// allocations, written for machine consumption by CI.
void emit_bench_json(const char* path, std::size_t cells, int reps) {
  core::TwoBranchNet& net = shared_net();
  util::Rng rng(11);
  const nn::Matrix workload = random_workload(cells, rng);
  const std::vector<double> soc0(cells, 0.8);

  serve::FleetEngine engine(net, cells, {});
  engine.set_soc(soc0);
  engine.step(workload);  // warm every shard's workspace

  // The pre-batching shape: one scalar Branch-2 forward per cell.
  core::InferenceWorkspace ws;
  std::vector<double> soc(soc0);
  double acc = 0.0;
  const int scalar_reps = reps / 5 + 1;
  (void)net.predict_soc(soc[0], workload(0, 0), workload(0, 1),
                        workload(0, 2), ws);  // warm-up
  util::WallTimer scalar_timer;
  for (int i = 0; i < scalar_reps; ++i) {
    for (std::size_t c = 0; c < cells; ++c) {
      soc[c] = util::clamp01(net.predict_soc(soc[c], workload(c, 0),
                                             workload(c, 1), workload(c, 2),
                                             ws));
    }
    acc += soc[0];
  }
  const double scalar_ms = scalar_timer.millis() / scalar_reps;

  // --- Live ingest: mailbox publish rates. One producer hammers the
  // wait-free seqlock publish path (the cost a telemetry thread pays per
  // message): sensor reports, then per-cell CellParams (the slow loop's
  // shape: a background SoH estimator publishing capacity fade). ---
  const int publish_reps = std::max(reps * 200, 100000);
  util::WallTimer publish_timer;
  for (int i = 0; i < publish_reps; ++i) {
    engine.mailbox().publish_sensors(static_cast<std::size_t>(i) % cells,
                                     {3.9, -1.5, 25.0});
  }
  const double publish_msgs_per_sec =
      publish_reps / (publish_timer.millis() * 1e-3);
  util::WallTimer param_publish_timer;
  for (int i = 0; i < publish_reps; ++i) {
    engine.mailbox().publish_params(static_cast<std::size_t>(i) % cells,
                                    {2.9, 0.99, 0.0});
  }
  const double param_publish_msgs_per_sec =
      publish_reps / (param_publish_timer.millis() * 1e-3);

  // Warm the drain staging at full width (every cell pending at once),
  // then measure the streaming steady state. Each rep times three ticks
  // back to back: a plain one; an ingest one, where 10% of the fleet
  // reports fresh sensors (a batched Branch-1 re-seed rides the tick) and
  // a workload override each; and a param one, where 10% of the fleet gets
  // a fresh CellParams update. Each overhead ratio divides medians of
  // neighbouring ticks, so a host stall moves a few samples, not a whole
  // phase's mean.
  for (std::size_t c = 0; c < cells; ++c) {
    engine.mailbox().publish_sensors(c, {3.9, -1.5, 25.0});
    engine.mailbox().publish_workload(c, {-2.0, 25.0, 60.0});
    engine.mailbox().publish_params(c, {2.9, 0.99, 0.0});
  }
  engine.step(workload);
  std::vector<double> plain_ms, ingest_ms, param_ms;
  plain_ms.reserve(static_cast<std::size_t>(reps));
  ingest_ms.reserve(static_cast<std::size_t>(reps));
  param_ms.reserve(static_cast<std::size_t>(reps));
  std::size_t tick_allocs = 0, ingest_allocs = 0, param_allocs = 0;
  for (int i = 0; i < reps; ++i) {
    std::size_t allocs_before = benchsupport::alloc_count();
    util::WallTimer tick_timer;
    engine.step(workload);
    plain_ms.push_back(tick_timer.millis());
    tick_allocs += benchsupport::alloc_count() - allocs_before;

    allocs_before = benchsupport::alloc_count();
    util::WallTimer ingest_timer;
    for (std::size_t c = static_cast<std::size_t>(i) % 10; c < cells;
         c += 10) {
      engine.mailbox().publish_sensors(c, {3.85, -1.2, 24.0});
      engine.mailbox().publish_workload(c, {-1.8, 23.0, 55.0});
    }
    engine.step(workload);
    ingest_ms.push_back(ingest_timer.millis());
    ingest_allocs += benchsupport::alloc_count() - allocs_before;

    allocs_before = benchsupport::alloc_count();
    util::WallTimer param_timer;
    for (std::size_t c = static_cast<std::size_t>(i) % 10; c < cells;
         c += 10) {
      engine.mailbox().publish_params(
          c, {2.8 + 0.001 * static_cast<double>(i % 100), 0.99, 0.0});
    }
    engine.step(workload);
    param_ms.push_back(param_timer.millis());
    param_allocs += benchsupport::alloc_count() - allocs_before;
  }
  const double tick_ms = median_ms(plain_ms);
  const double ingest_tick_ms = median_ms(ingest_ms);
  const double param_tick_ms = median_ms(param_ms);

  std::FILE* file = std::fopen(path, "w");
  if (file == nullptr) {
    std::fprintf(stderr, "emit_bench_json: cannot open %s\n", path);
    return;
  }
  std::fprintf(file, "{\n");
  std::fprintf(file, "  \"benchmark\": \"fleet_tick\",\n");
  std::fprintf(file, "  \"cells\": %zu,\n", cells);
  std::fprintf(file, "  \"threads\": %zu,\n", engine.num_threads());
  std::fprintf(file, "  \"tick_ms\": %.3f,\n", tick_ms);
  std::fprintf(file, "  \"cells_per_sec\": %.0f,\n",
               static_cast<double>(cells) / (tick_ms * 1e-3));
  std::fprintf(file, "  \"scalar_loop_ms\": %.3f,\n", scalar_ms);
  std::fprintf(file, "  \"speedup_batched_vs_scalar\": %.2f,\n",
               scalar_ms / tick_ms);
  std::fprintf(file, "  \"steady_state_allocs_per_tick\": %.3f,\n",
               static_cast<double>(tick_allocs) / reps);
  std::fprintf(file, "  \"mailbox_publish_msgs_per_sec\": %.0f,\n",
               publish_msgs_per_sec);
  std::fprintf(file, "  \"ingest_tick_ms\": %.3f,\n", ingest_tick_ms);
  std::fprintf(file, "  \"ingest_overhead_ratio\": %.2f,\n",
               ingest_tick_ms / tick_ms);
  std::fprintf(file, "  \"steady_state_allocs_per_ingest_tick\": %.3f,\n",
               static_cast<double>(ingest_allocs) / reps);
  std::fprintf(file, "  \"param_publish_msgs_per_sec\": %.0f,\n",
               param_publish_msgs_per_sec);
  std::fprintf(file, "  \"param_ingest_tick_ms\": %.3f,\n", param_tick_ms);
  std::fprintf(file, "  \"param_ingest_overhead_ratio\": %.2f,\n",
               param_tick_ms / tick_ms);
  std::fprintf(file, "  \"steady_state_allocs_per_param_tick\": %.3f,\n",
               static_cast<double>(param_allocs) / reps);
  std::fprintf(file, "  \"checksum\": %.6f\n", acc);
  std::fprintf(file, "}\n");
  std::fclose(file);
  std::printf(
      "--- fleet tick (%zu cells, %zu threads) ---\n"
      "tick %.3f ms (%.1f M cells/s), scalar loop %.3f ms (%.1fx), "
      "%.3f allocs per steady-state tick\n",
      cells, engine.num_threads(), tick_ms,
      static_cast<double>(cells) / (tick_ms * 1e3), scalar_ms,
      scalar_ms / tick_ms, static_cast<double>(tick_allocs) / reps);
  std::printf(
      "--- live ingest ---\n"
      "publish %.1f M msgs/s; streaming tick (10%% of cells reporting) "
      "%.3f ms (%.2fx plain tick), %.3f allocs per ingest tick\n",
      publish_msgs_per_sec * 1e-6, ingest_tick_ms, ingest_tick_ms / tick_ms,
      static_cast<double>(ingest_allocs) / reps);
  std::printf(
      "--- param ingest ---\n"
      "publish %.1f M params/s; param tick (10%% of cells updating) "
      "%.3f ms (%.2fx plain tick), %.3f allocs per param tick\n",
      param_publish_msgs_per_sec * 1e-6, param_tick_ms,
      param_tick_ms / tick_ms, static_cast<double>(param_allocs) / reps);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> argv_rest;
  const bool smoke = benchsupport::strip_smoke_flag(argc, argv, argv_rest);
  std::printf("fleet serving benchmark: %u hardware threads\n",
              std::thread::hardware_concurrency());
  // Smoke mode still executes one tick and one connect benchmark body.
  benchsupport::run_benchmarks(argc, argv_rest, smoke,
                               "BM_FleetTick/1024/1$|BM_FleetConnect");
  emit_bench_json("BENCH_fleet.json", smoke ? 4096 : 16384, smoke ? 60 : 200);
  return 0;
}
