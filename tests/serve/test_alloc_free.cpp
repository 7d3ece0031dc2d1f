/// Verifies the refactor's headline property: once a workspace is warm, the
/// batched inference path and the fleet tick perform ZERO heap allocations.
/// The whole test binary routes operator new through a counter; each test
/// warms up, snapshots the counter, runs the steady state, and requires the
/// counter unchanged.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>
#include <vector>

#include "core/two_branch_net.hpp"
#include "serve/fleet_engine.hpp"
#include "serve/rollout_engine.hpp"
#include "serve/sharded_fleet.hpp"
#include "support/fitted_net.hpp"
#include "util/rng.hpp"

#if defined(__SANITIZE_THREAD__)
#define SOCPINN_FORK_TESTS_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SOCPINN_FORK_TESTS_DISABLED 1
#endif
#endif
#ifndef SOCPINN_FORK_TESTS_DISABLED
#define SOCPINN_FORK_TESTS_DISABLED 0
#endif

namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// Over-aligned overloads: nn::AlignedAllocator routes every panel and
// workspace buffer through operator new(size, align_val_t); those must hit
// the same counter or the alloc-free contract would silently exclude the
// very buffers the inference path touches.
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace socpinn::serve {
namespace {

std::size_t allocs() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

TEST(AllocFree, BatchedEstimateSteadyStateAllocatesNothing)
{
  const core::TwoBranchNet net = testing::make_fitted_net(21);
  util::Rng rng(3);
  nn::Matrix sensors(256, 3);
  for (auto& v : sensors.data()) v = rng.uniform(-1.0, 1.0);

  core::InferenceWorkspace ws;
  (void)net.estimate_batch(sensors, ws);  // warm-up sizes every buffer

  const std::size_t before = allocs();
  double acc = 0.0;
  for (int i = 0; i < 100; ++i) {
    const nn::Matrix& out = net.estimate_batch(sensors, ws);
    acc += out(0, 0);
  }
  EXPECT_EQ(allocs(), before) << "batched estimate allocated on the hot path";
  EXPECT_TRUE(acc == acc);
}

TEST(AllocFree, CascadeAndScalarWrappersSteadyState) {
  const core::TwoBranchNet net = testing::make_fitted_net(21);
  util::Rng rng(5);
  nn::Matrix sensors(64, 3);
  nn::Matrix workload(64, 3);
  for (auto& v : sensors.data()) v = rng.uniform(-1.0, 1.0);
  for (auto& v : workload.data()) v = rng.uniform(-1.0, 1.0);

  core::InferenceWorkspace ws;
  (void)net.cascade_batch(sensors, workload, ws);
  (void)net.estimate_soc(3.8, -2.0, 25.0, ws);
  (void)net.predict_soc(0.7, -2.0, 25.0, 60.0, ws);

  const std::size_t before = allocs();
  double acc = 0.0;
  for (int i = 0; i < 50; ++i) {
    acc += net.cascade_batch(sensors, workload, ws)(0, 0);
    acc += net.estimate_soc(3.8, -2.0, 25.0, ws);
    acc += net.predict_soc(acc > 0 ? 0.5 : 0.6, -2.0, 25.0, 60.0, ws);
  }
  EXPECT_EQ(allocs(), before) << "cascade/scalar wrappers allocated";
}

TEST(AllocFree, FleetTickSteadyStateAllocatesNothing) {
  // Wide shards, plus thin ones at both precisions: a 20-cell shard is
  // zero-padded up to the nn::kColumnsMinBatch panel tile, a warm-up shape
  // of its own.
  struct Case {
    std::size_t cells;
    core::Precision precision;
  };
  static_assert(40 / 2 < nn::kColumnsMinBatch);
  const core::TwoBranchNet net = testing::make_fitted_net(21);
  for (const Case c : {Case{1000, core::Precision::kFloat64},
                       Case{40, core::Precision::kFloat64},
                       Case{40, core::Precision::kFloat32}}) {
    const bool f32 = c.precision == core::Precision::kFloat32;
    SCOPED_TRACE(::testing::Message()
                 << c.cells << " cells, " << (f32 ? "f32" : "f64"));
    util::Rng rng(7);
    nn::Matrix sensors(c.cells, 3);
    nn::Matrix workload(c.cells, 3);
    for (auto& v : sensors.data()) v = rng.uniform(-1.0, 1.0);
    for (auto& v : workload.data()) v = rng.uniform(-1.0, 1.0);

    FleetConfig config;
    config.threads = 2;
    config.precision = c.precision;
    FleetEngine engine(net, c.cells, config);
    engine.init_from_sensors(sensors);
    engine.step(workload);  // warm-up tick sizes every shard's scratch

    const std::size_t before = allocs();
    for (int tick = 0; tick < 25; ++tick) engine.step(workload);
    EXPECT_EQ(allocs(), before) << "fleet tick allocated in steady state";
    EXPECT_EQ(engine.ticks(), 26u);
  }
}

TEST(AllocFree, WorkspacesStopGrowingAtTheColumnTile) {
  // Every per-shard panel is at most nn::kColumnsTile columns wide, so a
  // workspace warmed by a batch of at least one tile never grows again,
  // whatever width comes next: a full-width synchronous re-seed runs all
  // 1000 cells on shard 0's workspace, warmed only by 500-cell shards.
  constexpr std::size_t kCells = 1000;
  static_assert(kCells / 2 >= nn::kColumnsTile);
  const core::TwoBranchNet net = testing::make_fitted_net(21);
  std::vector<std::size_t> all(kCells);
  std::iota(all.begin(), all.end(), std::size_t{0});
  for (const core::Precision precision :
       {core::Precision::kFloat64, core::Precision::kFloat32}) {
    SCOPED_TRACE(precision == core::Precision::kFloat32 ? "f32" : "f64");
    util::Rng rng(17);
    nn::Matrix sensors(kCells, 3);
    nn::Matrix workload(kCells, 3);
    for (auto& v : sensors.data()) v = rng.uniform(-1.0, 1.0);
    for (auto& v : workload.data()) v = rng.uniform(-1.0, 1.0);

    FleetConfig config;
    config.threads = 2;
    config.precision = precision;
    FleetEngine engine(net, kCells, config);
    engine.init_from_sensors(sensors);
    engine.step(workload);

    const std::size_t before = allocs();
    engine.reseed_from_sensors(all, sensors);
    EXPECT_EQ(allocs(), before) << "a wider batch grew a warm workspace";
  }
}

TEST(AllocFree, FleetRunStagesOnceAndAllocatesNothing) {
  // run() stages the shared workload row once per shard; after the warm-up
  // call, whole run() invocations must be allocation-free.
  const core::TwoBranchNet net = testing::make_fitted_net(21);
  FleetConfig config;
  config.threads = 2;
  FleetEngine engine(net, 777, config);
  const std::vector<double> start(777, 0.8);
  engine.set_soc(start);
  engine.run(-2.0, 25.0, 60.0, 2);  // warm-up sizes every shard's scratch

  const std::size_t before = allocs();
  engine.run(-2.0, 25.0, 60.0, 10);
  EXPECT_EQ(allocs(), before) << "FleetEngine::run allocated in steady state";
  EXPECT_EQ(engine.ticks(), 12u);
}

TEST(AllocFree, MailboxDrainAndPostSwapTicksAllocateNothing) {
  // The live-serving extension of the fleet contract: ticks that drain
  // mailbox publishes (workload overrides AND batched Branch-1 re-seeds)
  // stay allocation-free once the drain staging is warm, and ticks served
  // by a hot-swapped snapshot stay free too (the swap itself allocates —
  // off the hot path, by design).
  const core::TwoBranchNet net = testing::make_fitted_net(21);
  const std::size_t cells = 500;
  util::Rng rng(9);
  nn::Matrix sensors(cells, 3);
  nn::Matrix workload(cells, 3);
  for (auto& v : sensors.data()) v = rng.uniform(-1.0, 1.0);
  for (auto& v : workload.data()) v = rng.uniform(-1.0, 1.0);

  FleetConfig config;
  config.threads = 2;
  FleetEngine engine(net, cells, config);
  engine.init_from_sensors(sensors);
  // Warm-up: every cell pending at once sizes the drain staging at the
  // full shard width; smaller drains below reuse that capacity.
  for (std::size_t c = 0; c < cells; ++c) {
    engine.mailbox().publish_sensors(c, {3.9, -1.5, 25.0});
    engine.mailbox().publish_workload(c, {-2.0, 25.0, 60.0});
  }
  engine.step(workload);
  engine.swap_model(net);  // allocates here, not in the ticks below

  const std::size_t before = allocs();
  for (int tick = 0; tick < 25; ++tick) {
    // A rotating subset keeps every tick's drain non-trivial: publishes
    // are themselves allocation-free, and so is consuming them.
    for (std::size_t c = tick % 5; c < cells; c += 5) {
      engine.mailbox().publish_sensors(c, {3.8, -1.0, 24.0});
      engine.mailbox().publish_workload(c, {-1.5, 22.0, 45.0});
    }
    engine.step(workload);
  }
  EXPECT_EQ(allocs(), before) << "mailbox drain allocated in steady state";
  EXPECT_EQ(engine.ticks(), 26u);
}

TEST(AllocFree, FirstBusyTickAfterAQuietWarmUpAllocatesNothing) {
  // A fleet warmed only by quiet ticks has never drained a message, so its
  // first busy tick is the first to fill the drain staging: that staging
  // must already hold a whole shard's worth of pending reports.
  const core::TwoBranchNet net = testing::make_fitted_net(21);
  const std::size_t cells = 500;
  for (const core::Precision precision :
       {core::Precision::kFloat64, core::Precision::kFloat32}) {
    SCOPED_TRACE(precision == core::Precision::kFloat32 ? "f32" : "f64");
    util::Rng rng(23);
    nn::Matrix sensors(cells, 3);
    nn::Matrix workload(cells, 3);
    for (auto& v : sensors.data()) v = rng.uniform(-1.0, 1.0);
    for (auto& v : workload.data()) v = rng.uniform(-1.0, 1.0);

    FleetConfig config;
    config.threads = 2;
    config.precision = precision;
    FleetEngine engine(net, cells, config);
    engine.init_from_sensors(sensors);
    engine.step(workload);  // quiet warm-up: the mailbox is empty

    const std::size_t before = allocs();
    for (std::size_t c = 0; c < cells; ++c) {
      engine.mailbox().publish_sensors(c, {3.9, -1.5, 25.0});
      engine.mailbox().publish_workload(c, {-2.0, 25.0, 60.0});
    }
    engine.step(workload);
    EXPECT_EQ(allocs(), before) << "the first busy tick allocated";
    EXPECT_EQ(engine.ticks(), 2u);
  }
}

TEST(AllocFree, ParamDrainTicksSteadyStateAllocateNothing) {
  // The param plane rides the same hot path: ticks that drain a stream of
  // per-cell CellParams updates — including ones steering physics-mode
  // cells through Eq. 1 — allocate nothing once warm.
  const core::TwoBranchNet net = testing::make_fitted_net(21);
  const std::size_t cells = 500;
  util::Rng rng(15);
  nn::Matrix sensors(cells, 3);
  nn::Matrix workload(cells, 3);
  for (auto& v : sensors.data()) v = rng.uniform(-1.0, 1.0);
  for (auto& v : workload.data()) v = rng.uniform(-1.0, 1.0);

  FleetConfig config;
  config.threads = 2;
  FleetEngine engine(net, cells, config);
  std::vector<CellMode> modes(cells, CellMode::kCascade);
  for (std::size_t c = 0; c < cells; c += 4) modes[c] = CellMode::kPhysicsOnly;
  engine.set_cell_modes(modes);
  engine.init_from_sensors(sensors);
  for (std::size_t c = 0; c < cells; ++c) {
    engine.mailbox().publish_params(c, {2.8, 0.99, 0.0});
  }
  engine.step(workload);  // warm-up tick drains the full fleet's params

  const std::size_t before = allocs();
  for (int tick = 0; tick < 25; ++tick) {
    // ~10% of cells get a fresh capacity every tick — the slow-loop shape.
    for (std::size_t c = tick % 10; c < cells; c += 10) {
      engine.mailbox().publish_params(
          c, {2.5 + 0.001 * static_cast<double>(tick), 0.99, 0.0});
    }
    engine.step(workload);
  }
  EXPECT_EQ(allocs(), before) << "param drain allocated in steady state";
  EXPECT_EQ(engine.ticks(), 26u);
  EXPECT_EQ(engine.ingest_stats().dropped_param_updates, 0u);
}

TEST(AllocFree, ExternalMailboxSlotsTickLikeOwnedOnes) {
  // The shared-memory transport hands FleetEngine an external slot array;
  // the engine's steady-state zero-allocation contract must hold
  // unchanged over a view it does not own.
  const core::TwoBranchNet net = testing::make_fitted_net(21);
  const std::size_t cells = 400;
  util::Rng rng(13);
  nn::Matrix sensors(cells, 3);
  nn::Matrix workload(cells, 3);
  for (auto& v : sensors.data()) v = rng.uniform(-1.0, 1.0);
  for (auto& v : workload.data()) v = rng.uniform(-1.0, 1.0);

  std::vector<MailboxSlot> external(cells);  // zero state, like ftruncate
  FleetConfig config;
  config.threads = 2;
  config.external_mailbox_slots = external.data();
  FleetEngine engine(net, cells, config);
  engine.init_from_sensors(sensors);
  for (std::size_t c = 0; c < cells; ++c) {
    engine.mailbox().publish_sensors(c, {3.9, -1.5, 25.0});
    engine.mailbox().publish_workload(c, {-2.0, 25.0, 60.0});
  }
  engine.step(workload);

  const std::size_t before = allocs();
  for (int tick = 0; tick < 25; ++tick) {
    for (std::size_t c = tick % 5; c < cells; c += 5) {
      engine.mailbox().publish_sensors(c, {3.8, -1.0, 24.0});
    }
    engine.step(workload);
  }
  EXPECT_EQ(allocs(), before) << "external-slot ticks allocated";
  EXPECT_EQ(engine.ticks(), 26u);
}

TEST(AllocFree, ShardedWorkerTicksSteadyStateAllocateNothing) {
  // The cross-process half of the contract: each forked worker inherits
  // this binary's counting operator new, probes it around every command's
  // engine execution (ShardedFleetConfig::alloc_counter), and exports the
  // delta through its segment header — so the steady-state
  // allocation-free property is asserted INSIDE the worker processes.
  if (SOCPINN_FORK_TESTS_DISABLED) {
    GTEST_SKIP() << "fork-without-exec workers are incompatible with "
                    "ThreadSanitizer";
  }
  const core::TwoBranchNet net = testing::make_fitted_net(21);
  const std::size_t cells = 300;
  util::Rng rng(19);
  const nn::Matrix sensors = testing::random_sensors(cells, rng);
  const nn::Matrix workload = testing::random_workload(cells, rng);

  ShardedFleetConfig config;
  config.workers = 2;
  config.threads_per_worker = 2;
  config.alloc_counter = &allocs;
  ShardedFleet fleet(net, cells, config);
  fleet.init_from_sensors(sensors);
  // Warm-up: publishes size the drain staging at full shard width; the
  // first step and run size the per-shard forward scratch.
  for (std::size_t c = 0; c < cells; ++c) {
    fleet.publish_sensors(c, {3.9, -1.5, 25.0});
    fleet.publish_workload(c, {-2.0, 25.0, 60.0});
  }
  fleet.step(workload);
  fleet.run(-2.0, 25.0, 60.0, 2);

  for (int tick = 0; tick < 10; ++tick) {
    for (std::size_t c = tick % 5; c < cells; c += 5) {
      fleet.publish_sensors(c, {3.8, -1.0, 24.0});
    }
    fleet.step(workload);
    for (std::size_t w = 0; w < fleet.num_workers(); ++w) {
      EXPECT_EQ(fleet.worker_allocs_last_command(w), 0u)
          << "worker " << w << " allocated during steady-state tick " << tick;
    }
  }
  fleet.run(-2.0, 25.0, 60.0, 5);
  for (std::size_t w = 0; w < fleet.num_workers(); ++w) {
    EXPECT_EQ(fleet.worker_allocs_last_command(w), 0u)
        << "worker " << w << " allocated during steady-state run";
  }
}

TEST(AllocFree, RolloutStepsSteadyStateAllocateNothing) {
  // The tentpole property of the batched rollout engine: after one warm-up
  // run over a ragged fleet, repeat runs — every lockstep step, including
  // lane retirement and closed-loop re-anchor steps — perform zero heap
  // allocations.
  const core::TwoBranchNet net = testing::make_fitted_net(21);
  const std::vector<data::Trace> fleet = testing::synthetic_fleet(48, 33);
  const std::vector<data::WorkloadSchedule> schedules =
      data::build_workload_schedules(fleet, 30.0);
  std::vector<data::ReanchorPlan> plans;
  plans.reserve(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    plans.push_back(data::build_reanchor_plan(fleet[i], 30.0, 3 + i % 3));
  }
  std::vector<RolloutLane> lanes(schedules.size());
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    lanes[i].schedule = &schedules[i];
    if (i % 4 == 3) {  // physics lanes share the pass and must stay free too
      lanes[i].kind = LaneKind::kPhysicsOnly;
      lanes[i].params.capacity_ah = 3.0;
    }
    // Closed-loop lanes re-anchor mid-run; the batched Branch-1 staging
    // must reuse its warm capacity like every other per-step buffer.
    if (i % 2 == 0) lanes[i].reanchor = &plans[i];
  }

  RolloutConfig config;
  config.threads = 2;
  RolloutEngine engine(net, config);
  std::vector<core::Rollout> out(lanes.size());
  engine.run_into(lanes, out);  // warm-up run sizes every buffer

  const std::size_t before = allocs();
  for (int rep = 0; rep < 3; ++rep) engine.run_into(lanes, out);
  EXPECT_EQ(allocs(), before) << "rollout steps allocated in steady state";
}

}  // namespace
}  // namespace socpinn::serve
