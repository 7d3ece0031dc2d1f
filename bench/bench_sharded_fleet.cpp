/// \file bench_sharded_fleet.cpp
/// The multi-process serving workload: one ShardedFleet advancing N cells
/// per tick across W forked worker processes over the shared-memory
/// transport. Reports cells/second versus process count (the scaling
/// curve the multi-process split exists for), the overhead of a tick that
/// drains streaming shm ingest, the cross-process mailbox publish rate,
/// and the per-worker steady-state allocation count probed INSIDE the
/// worker processes via the inherited counting operator new.
///
/// Writes BENCH_shard.json (same flat schema family as BENCH_fleet.json),
/// threshold-checked in CI via tools/check_bench_regression.py. The
/// process-scaling floors are gated on `multiproc_gate` (>= 4 hardware
/// threads): on 1-2 core runners the workers time-share a core and a
/// speedup floor would only measure the scheduler.
///
/// Options: --smoke (tiny fleet/reps for CI smoke runs; skips the Google
/// Benchmark sweep and only emits the JSON), plus the usual
/// --benchmark_* flags.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_support.hpp"
#include "serve/sharded_fleet.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace socpinn;
using benchsupport::random_workload;
using benchsupport::shared_net;

serve::ShardedFleetConfig sharded_config(std::size_t workers) {
  serve::ShardedFleetConfig config;
  config.workers = workers;
  config.threads_per_worker = 1;  // scale with processes, not threads
  config.alloc_counter = &benchsupport::alloc_count;
  return config;
}

void BM_ShardedFleetTick(benchmark::State& state) {
  const auto cells = static_cast<std::size_t>(state.range(0));
  const auto workers = static_cast<std::size_t>(state.range(1));
  util::Rng rng(11);
  serve::ShardedFleet fleet(shared_net(), cells, sharded_config(workers));
  const std::vector<double> soc(cells, 0.8);
  fleet.set_soc(soc);
  const nn::Matrix workload = random_workload(cells, rng);
  fleet.step(workload);  // warm every worker's scratch
  for (auto _ : state) {
    fleet.step(workload);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cells));
  state.counters["cells"] = static_cast<double>(cells);
  state.counters["procs"] = static_cast<double>(fleet.num_workers());
}
BENCHMARK(BM_ShardedFleetTick)
    ->ArgsProduct({{16384, 131072}, {1, 2, 4}})
    ->Unit(benchmark::kMillisecond);

/// Ticks `fleet` reps times and returns ms/tick; records the largest
/// per-worker allocation count any timed tick reported (the cross-process
/// steady-state probe) into `worst_worker_allocs`.
double timed_ticks(serve::ShardedFleet& fleet, const nn::Matrix& workload,
                   int reps, std::uint64_t& worst_worker_allocs) {
  util::WallTimer timer;
  for (int i = 0; i < reps; ++i) {
    fleet.step(workload);
    for (std::size_t w = 0; w < fleet.num_workers(); ++w) {
      worst_worker_allocs =
          std::max(worst_worker_allocs, fleet.worker_allocs_last_command(w));
    }
  }
  return timer.millis() / reps;
}

void emit_bench_json(const char* path, std::size_t cells, int reps) {
  util::Rng rng(11);
  const nn::Matrix workload = random_workload(cells, rng);
  const std::vector<double> soc0(cells, 0.8);
  const unsigned hw = std::thread::hardware_concurrency();

  // --- cells/sec vs process count, same fleet, same workload ---
  const std::size_t proc_counts[] = {1, 2, 4};
  double tick_ms[3] = {0.0, 0.0, 0.0};
  std::uint64_t worst_worker_allocs = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    serve::ShardedFleet fleet(shared_net(), cells,
                              sharded_config(proc_counts[i]));
    fleet.set_soc(soc0);
    fleet.step(workload);  // warm-up sizes every worker's scratch
    fleet.step(workload);
    tick_ms[i] = timed_ticks(fleet, workload, reps, worst_worker_allocs);
  }

  // --- streaming ingest through shm at 2 processes: 10% of the fleet
  // reports per tick (fresh sensors + an override), like BENCH_fleet's
  // in-process ingest section ---
  serve::ShardedFleet fleet(shared_net(), cells, sharded_config(2));
  fleet.set_soc(soc0);
  fleet.step(workload);
  const int publish_reps = std::max(reps * 200, 100000);
  util::WallTimer publish_timer;
  for (int i = 0; i < publish_reps; ++i) {
    fleet.publish_sensors(static_cast<std::size_t>(i) % cells,
                          {3.9, -1.5, 25.0});
  }
  const double publish_msgs_per_sec =
      publish_reps / (publish_timer.millis() * 1e-3);
  for (std::size_t c = 0; c < cells; ++c) {  // warm drain staging full-width
    fleet.publish_sensors(c, {3.9, -1.5, 25.0});
    fleet.publish_workload(c, {-2.0, 25.0, 60.0});
  }
  fleet.step(workload);
  const double plain_ms = timed_ticks(fleet, workload, std::max(reps / 2, 1),
                                      worst_worker_allocs);
  util::WallTimer ingest_timer;
  for (int i = 0; i < reps; ++i) {
    for (std::size_t c = static_cast<std::size_t>(i) % 10; c < cells;
         c += 10) {
      fleet.publish_sensors(c, {3.85, -1.2, 24.0});
      fleet.publish_workload(c, {-1.8, 23.0, 55.0});
    }
    fleet.step(workload);
  }
  const double ingest_tick_ms = ingest_timer.millis() / reps;

  // --- param ingest through shm: the parent-side publish_params rate
  // (wait-free into the owning worker's shm slot) and a tick draining
  // updates for 10% of the fleet — the background-SoH-estimator shape ---
  util::WallTimer param_publish_timer;
  for (int i = 0; i < publish_reps; ++i) {
    fleet.publish_params(static_cast<std::size_t>(i) % cells,
                         {2.9, 0.99, 0.0});
  }
  const double param_publish_msgs_per_sec =
      publish_reps / (param_publish_timer.millis() * 1e-3);
  for (std::size_t c = 0; c < cells; ++c) {  // warm param drain full-width
    fleet.publish_params(c, {2.9, 0.99, 0.0});
  }
  fleet.step(workload);
  util::WallTimer param_timer;
  for (int i = 0; i < reps; ++i) {
    for (std::size_t c = static_cast<std::size_t>(i) % 10; c < cells;
         c += 10) {
      fleet.publish_params(
          c, {2.8 + 0.001 * static_cast<double>(i % 100), 0.99, 0.0});
    }
    fleet.step(workload);
    for (std::size_t w = 0; w < fleet.num_workers(); ++w) {
      worst_worker_allocs =
          std::max(worst_worker_allocs, fleet.worker_allocs_last_command(w));
    }
  }
  const double param_tick_ms = param_timer.millis() / reps;

  std::FILE* file = std::fopen(path, "w");
  if (file == nullptr) {
    std::fprintf(stderr, "emit_bench_json: cannot open %s\n", path);
    return;
  }
  std::fprintf(file, "{\n");
  std::fprintf(file, "  \"benchmark\": \"sharded_fleet\",\n");
  std::fprintf(file, "  \"cells\": %zu,\n", cells);
  std::fprintf(file, "  \"hw_threads\": %u,\n", hw);
  std::fprintf(file, "  \"multiproc_gate\": %d,\n", hw >= 4 ? 1 : 0);
  std::fprintf(file, "  \"tick_ms_1proc\": %.3f,\n", tick_ms[0]);
  std::fprintf(file, "  \"tick_ms_2proc\": %.3f,\n", tick_ms[1]);
  std::fprintf(file, "  \"tick_ms_4proc\": %.3f,\n", tick_ms[2]);
  std::fprintf(file, "  \"cells_per_sec_1proc\": %.0f,\n",
               static_cast<double>(cells) / (tick_ms[0] * 1e-3));
  std::fprintf(file, "  \"cells_per_sec_2proc\": %.0f,\n",
               static_cast<double>(cells) / (tick_ms[1] * 1e-3));
  std::fprintf(file, "  \"cells_per_sec_4proc\": %.0f,\n",
               static_cast<double>(cells) / (tick_ms[2] * 1e-3));
  std::fprintf(file, "  \"speedup_2proc_vs_1proc\": %.2f,\n",
               tick_ms[0] / tick_ms[1]);
  std::fprintf(file, "  \"speedup_4proc_vs_1proc\": %.2f,\n",
               tick_ms[0] / tick_ms[2]);
  std::fprintf(file, "  \"shm_publish_msgs_per_sec\": %.0f,\n",
               publish_msgs_per_sec);
  std::fprintf(file, "  \"ingest_tick_ms_sharded\": %.3f,\n", ingest_tick_ms);
  std::fprintf(file, "  \"ingest_overhead_ratio_sharded\": %.2f,\n",
               ingest_tick_ms / plain_ms);
  std::fprintf(file, "  \"shm_param_publish_msgs_per_sec\": %.0f,\n",
               param_publish_msgs_per_sec);
  std::fprintf(file, "  \"param_ingest_tick_ms_sharded\": %.3f,\n",
               param_tick_ms);
  std::fprintf(file, "  \"param_ingest_overhead_ratio_sharded\": %.2f,\n",
               param_tick_ms / plain_ms);
  std::fprintf(file, "  \"steady_state_allocs_per_worker_tick\": %llu\n",
               static_cast<unsigned long long>(worst_worker_allocs));
  std::fprintf(file, "}\n");
  std::fclose(file);
  std::printf(
      "--- sharded fleet tick (%zu cells, %u hw threads) ---\n"
      "1 proc %.3f ms, 2 procs %.3f ms (%.2fx), 4 procs %.3f ms (%.2fx)\n",
      cells, hw, tick_ms[0], tick_ms[1], tick_ms[0] / tick_ms[1], tick_ms[2],
      tick_ms[0] / tick_ms[2]);
  std::printf(
      "--- shm ingest (2 procs) ---\n"
      "publish %.1f M msgs/s; streaming tick %.3f ms (%.2fx plain tick); "
      "worst worker tick allocated %llu\n",
      publish_msgs_per_sec * 1e-6, ingest_tick_ms, ingest_tick_ms / plain_ms,
      static_cast<unsigned long long>(worst_worker_allocs));
  std::printf(
      "--- shm param ingest (2 procs) ---\n"
      "publish %.1f M params/s; param tick (10%% of cells updating) "
      "%.3f ms (%.2fx plain tick)\n",
      param_publish_msgs_per_sec * 1e-6, param_tick_ms,
      param_tick_ms / plain_ms);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> argv_rest;
  const bool smoke = benchsupport::strip_smoke_flag(argc, argv, argv_rest);
  std::printf("sharded fleet benchmark: %u hardware threads\n",
              std::thread::hardware_concurrency());
  // Smoke mode still executes one multi-process benchmark body.
  benchsupport::run_benchmarks(argc, argv_rest, smoke,
                               "BM_ShardedFleetTick/16384/2$");
  emit_bench_json("BENCH_shard.json", smoke ? 8192 : 131072, smoke ? 20 : 100);
  return 0;
}
