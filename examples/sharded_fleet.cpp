/// \file sharded_fleet.cpp
/// One fleet, N processes, a million cells: the multi-process sharding
/// soak. A ShardedFleet parent forks worker processes, each owning one
/// contiguous shard of the fleet and running the existing FleetEngine
/// over it; everything crosses process boundaries through shared memory
/// (one fleet segment holding per-cell seqlock mailboxes for telemetry
/// and the SoC/input arrays for commands, plus a versioned model region
/// for hot-swap).
///
///   1. the fleet connects once (batched Branch-1 seeding, staged once in
///      the fleet segment, each worker seeding its own slice),
///   2. the soak loop ticks the whole fleet while the parent streams
///      per-cell telemetry straight into the workers' shm mailboxes —
///      including a few deliberately non-finite messages, which each
///      worker's ingress edge skips and counts (never poisoning a cell),
///   3. mid-soak, a "retrained" model is published to the shared model
///      region: serialized once, adopted by every worker at its next
///      command — no torn ticks, no restart.
///
/// Run: ./sharded_fleet [num_cells] [workers] [ticks]
/// Default is a 1,000,000-cell soak across 4 worker processes; --smoke
/// shrinks it for CI.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "example_support.hpp"
#include "serve/sharded_fleet.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace socpinn;

namespace {

core::TwoBranchNet make_serving_net(std::uint64_t seed) {
  core::TwoBranchNet net({}, seed);
  net.scaler1() = nn::StandardScaler::from_moments({3.7, -1.5, 25.0},
                                                   {0.3, 2.0, 8.0});
  net.scaler2() = nn::StandardScaler::from_moments(
      {0.5, -1.5, 25.0, 45.0}, {0.25, 2.0, 8.0, 18.0});
  return net;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = examples::strip_smoke_flag(argc, argv);
  const std::size_t cells = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                     : (smoke ? 20000 : 1000000);
  const std::size_t workers = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                       : (smoke ? 2 : 4);
  const std::size_t ticks = argc > 3 ? std::strtoull(argv[3], nullptr, 10)
                                     : (smoke ? 4 : 20);
  if (cells == 0 || workers == 0 || workers > cells || ticks == 0) {
    std::fprintf(stderr,
                 "usage: sharded_fleet [num_cells > 0] [workers <= cells] "
                 "[ticks > 0]\n");
    return 1;
  }

  const core::TwoBranchNet net = make_serving_net(1);
  serve::ShardedFleetConfig config;
  config.workers = workers;
  serve::ShardedFleet fleet(net, cells, config);
  std::printf("sharded fleet: %zu cells across %zu worker processes\n",
              cells, workers);
  for (const serve::Shard& shard : fleet.shards()) {
    std::printf("  worker %zu owns cells [%zu, %zu)\n", shard.index,
                shard.begin, shard.end);
  }

  // 1. Connect: one batched Branch-1 seed for the whole fleet.
  util::Rng rng(42);
  nn::Matrix sensors(cells, 3);
  for (std::size_t i = 0; i < cells; ++i) {
    sensors(i, 0) = rng.uniform(3.5, 4.1);
    sensors(i, 1) = rng.uniform(-4.0, 0.5);
    sensors(i, 2) = rng.uniform(10.0, 35.0);
  }
  util::WallTimer connect_timer;
  fleet.init_from_sensors(sensors);
  std::printf("connected %zu cells in %.1f ms\n", cells,
              connect_timer.millis());

  // 2 + 3. Soak: tick the fleet while streaming telemetry through shm;
  // hot-swap a retrained model halfway.
  nn::Matrix workload(cells, 3);
  for (std::size_t i = 0; i < cells; ++i) {
    workload(i, 0) = rng.uniform(-5.0, 0.0);
    workload(i, 1) = rng.uniform(10.0, 35.0);
    workload(i, 2) = 60.0;
  }
  fleet.step(workload);  // warm-up tick sizes every worker's scratch
  const core::TwoBranchNet retrained = make_serving_net(2);
  const double nan = std::numeric_limits<double>::quiet_NaN();

  util::WallTimer soak_timer;
  for (std::size_t t = 1; t < ticks + 1; ++t) {
    // ~1% of the fleet reports fresh sensors each tick, straight into the
    // owning worker's shm mailbox; every 40th report is corrupt (NaN) to
    // show the cross-process skip-and-count ingress edge at work.
    for (std::size_t c = t % 100; c < cells; c += 100) {
      const double voltage = (c / 100) % 40 == 0 ? nan : rng.uniform(3.2, 4.1);
      fleet.publish_sensors(
          c, {voltage, rng.uniform(-5.0, 1.0), rng.uniform(5.0, 40.0)});
      if (c % 500 == 0) {
        fleet.publish_workload(
            c, {rng.uniform(-5.0, 0.0), rng.uniform(10.0, 35.0), 60.0});
      }
    }
    if (t == ticks / 2 + 1) {
      util::WallTimer swap_timer;
      fleet.swap_model(retrained);
      std::printf(
          "tick %zu: hot-swapped retrained model (serialized once, %.1f ms; "
          "workers adopt at their next command)\n",
          t, swap_timer.millis());
    }
    fleet.step(workload);
  }
  const double soak_ms = soak_timer.millis();
  const double ms_per_tick = soak_ms / static_cast<double>(ticks);

  double mean = 0.0;
  for (const double soc : fleet.soc()) mean += soc;
  mean /= static_cast<double>(cells);
  const serve::IngestStats drops = fleet.ingest_stats();
  std::printf(
      "soaked %zu ticks at %.2f ms/tick (%.2f M cells/s) across %zu "
      "processes; mean SoC %.3f\n",
      ticks, ms_per_tick,
      static_cast<double>(cells) / (ms_per_tick * 1e-3) * 1e-6, workers,
      mean);
  std::printf(
      "ingress edge dropped %llu corrupt sensor reports, %llu corrupt "
      "overrides (skip-and-count, aggregated across workers)\n",
      static_cast<unsigned long long>(drops.dropped_sensor_reports),
      static_cast<unsigned long long>(drops.dropped_workload_overrides));
  for (std::size_t w = 0; w < fleet.num_workers(); ++w) {
    if (fleet.worker_model_version(w) != fleet.model_version()) {
      std::fprintf(stderr, "worker %zu did not adopt the swapped model\n", w);
      return 1;
    }
  }
  std::printf("every worker serves model version %llu\n",
              static_cast<unsigned long long>(fleet.model_version()));
  return 0;
}
