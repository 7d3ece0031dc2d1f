/// Live-serving contracts (see fleet_engine.hpp "Live serving"):
///
///  * Drain equivalence: interleaving mailbox publishes with ticks is
///    bitwise identical to the equivalent synchronous sequence —
///    reseed_from_sensors() for the drained reports, then step() with the
///    overridden workload rows — at 1, 2, and 8 threads.
///  * reseed_from_sensors over the whole fleet reproduces
///    init_from_sensors bitwise (same batched estimate, row independence).
///  * Workload overrides are sticky: they replace the staged row from the
///    drain tick on, across step() and run() alike, until a newer
///    override supersedes them.
///  * Ingest under load: producers hammering the mailbox mid-tick never
///    tear a tick; once producers finish, the fleet lands in the exact
///    deterministic state implied by the final published messages.
///  * Hot-swap: swap_model publishes between ticks — every tick serves
///    exactly one model (never a mix), no tick is dropped, and a swap
///    during a RolloutEngine run applies to the next run whole.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "serve/fleet_engine.hpp"
#include "serve/rollout_engine.hpp"
#include "support/fitted_net.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace socpinn::serve {
namespace {

using testing::random_sensors;
using testing::random_workload;

/// One deterministic ingest script: per tick, which cells get a fresh
/// sensor report and which get a workload override, with what payloads.
struct IngestTick {
  std::vector<std::size_t> sensor_cells;
  nn::Matrix sensors;  ///< sensor_cells.size() x 3
  std::vector<std::size_t> override_cells;
  std::vector<WorkloadOverride> overrides;
};

std::vector<IngestTick> make_ingest_script(std::size_t cells,
                                           std::size_t ticks,
                                           std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<IngestTick> script(ticks);
  for (std::size_t t = 0; t < ticks; ++t) {
    IngestTick& tick = script[t];
    for (std::size_t cell = 0; cell < cells; ++cell) {
      if ((cell * 7 + t * 3) % 5 == 0) tick.sensor_cells.push_back(cell);
      if ((cell * 11 + t) % 7 == 0) tick.override_cells.push_back(cell);
    }
    tick.sensors = random_sensors(tick.sensor_cells.size(), rng);
    tick.overrides.resize(tick.override_cells.size());
    for (auto& o : tick.overrides) {
      o = {rng.uniform(-6.0, 3.0), rng.uniform(-5.0, 45.0),
           rng.uniform(10.0, 600.0)};
    }
  }
  return script;
}

TEST(LiveServing, DrainBitwiseEqualsSynchronousSequence) {
  const core::TwoBranchNet net = testing::make_fitted_net(9);
  const std::size_t cells = 97;
  const std::size_t ticks = 6;
  util::Rng rng(31);
  const nn::Matrix sensors0 = random_sensors(cells, rng);
  const nn::Matrix workload = random_workload(cells, rng);
  const std::vector<IngestTick> script = make_ingest_script(cells, ticks, 55);

  // Reference: single-threaded, fully synchronous — partial re-seeds via
  // reseed_from_sensors, overrides applied by editing the workload matrix
  // (sticky, exactly the documented drain semantics).
  FleetEngine reference(net, cells, {.threads = 1});
  reference.init_from_sensors(sensors0);
  nn::Matrix ref_workload = workload;
  std::vector<std::vector<double>> ref_soc_per_tick;
  for (std::size_t t = 0; t < ticks; ++t) {
    const IngestTick& tick = script[t];
    reference.reseed_from_sensors(tick.sensor_cells, tick.sensors);
    for (std::size_t i = 0; i < tick.override_cells.size(); ++i) {
      const std::size_t cell = tick.override_cells[i];
      ref_workload(cell, 0) = tick.overrides[i].avg_current;
      ref_workload(cell, 1) = tick.overrides[i].avg_temp_c;
      ref_workload(cell, 2) = tick.overrides[i].horizon_s;
    }
    reference.step(ref_workload);
    ref_soc_per_tick.emplace_back(reference.soc().begin(),
                                  reference.soc().end());
  }

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    FleetEngine engine(net, cells, {.threads = threads});
    engine.init_from_sensors(sensors0);
    for (std::size_t t = 0; t < ticks; ++t) {
      const IngestTick& tick = script[t];
      for (std::size_t i = 0; i < tick.sensor_cells.size(); ++i) {
        engine.mailbox().publish_sensors(
            tick.sensor_cells[i],
            {tick.sensors(i, 0), tick.sensors(i, 1), tick.sensors(i, 2)});
      }
      for (std::size_t i = 0; i < tick.override_cells.size(); ++i) {
        engine.mailbox().publish_workload(tick.override_cells[i],
                                          tick.overrides[i]);
      }
      engine.step(workload);  // drain happens at the top of the tick
      for (std::size_t c = 0; c < cells; ++c) {
        ASSERT_EQ(engine.soc()[c], ref_soc_per_tick[t][c])
            << "tick " << t << " cell " << c << " threads " << threads;
      }
    }
  }
}

TEST(LiveServing, ReseedAllCellsMatchesInitFromSensors) {
  const core::TwoBranchNet net = testing::make_fitted_net(9);
  const std::size_t cells = 113;
  util::Rng rng(3);
  const nn::Matrix sensors = random_sensors(cells, rng);

  FleetEngine connected(net, cells, {.threads = 2});
  connected.init_from_sensors(sensors);

  FleetEngine reseeded(net, cells, {.threads = 2});
  std::vector<std::size_t> all(cells);
  for (std::size_t i = 0; i < cells; ++i) all[i] = i;
  reseeded.reseed_from_sensors(all, sensors);

  for (std::size_t c = 0; c < cells; ++c) {
    EXPECT_EQ(reseeded.soc()[c], connected.soc()[c]) << "cell " << c;
  }
}

TEST(LiveServing, ReseedValidatesArguments) {
  const core::TwoBranchNet net = testing::make_fitted_net(9);
  FleetEngine engine(net, 8, {.threads = 1});
  const std::vector<std::size_t> cells = {1, 3};
  EXPECT_THROW(engine.reseed_from_sensors(cells, nn::Matrix(3, 3)),
               std::invalid_argument);
  EXPECT_THROW(engine.reseed_from_sensors(cells, nn::Matrix(2, 2)),
               std::invalid_argument);
  const std::vector<std::size_t> out_of_range = {1, 8};
  EXPECT_THROW(engine.reseed_from_sensors(out_of_range, nn::Matrix(2, 3)),
               std::invalid_argument);
}

TEST(LiveServing, NonFiniteMailboxMessagesAreSkippedAndCounted) {
  // The asynchronous side of the serve::is_finite policy: a NaN/Inf field
  // must not poison the cell's SoC (sensor report) or stick in the
  // override table (workload forecast). The drain cannot throw mid-tick,
  // so it drops the message and counts it; the next valid publish simply
  // supersedes (latest-wins).
  const core::TwoBranchNet net = testing::make_fitted_net(11);
  const std::size_t cells = 37;
  util::Rng rng(17);
  const nn::Matrix sensors0 = random_sensors(cells, rng);
  const nn::Matrix workload = random_workload(cells, rng);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  FleetEngine engine(net, cells, {.threads = 2});
  FleetEngine reference(net, cells, {.threads = 2});
  engine.init_from_sensors(sensors0);
  reference.init_from_sensors(sensors0);

  engine.mailbox().publish_sensors(3, {nan, -1.0, 25.0});
  engine.mailbox().publish_sensors(5, {3.9, inf, 25.0});
  engine.mailbox().publish_workload(7, {-2.0, nan, 60.0});
  engine.step(workload);
  reference.step(workload);

  // Skipped messages leave the tick bitwise identical to no publish at
  // all, and the counters say what was dropped.
  for (std::size_t c = 0; c < cells; ++c) {
    ASSERT_EQ(engine.soc()[c], reference.soc()[c]) << "cell " << c;
  }
  EXPECT_EQ(engine.ingest_stats(),
            (IngestStats{.dropped_sensor_reports = 2,
                         .dropped_workload_overrides = 1}));
  EXPECT_FALSE(engine.has_workload_override(7));

  // A later valid report recovers the cell — nothing was latched.
  engine.mailbox().publish_sensors(3, {3.9, -1.0, 25.0});
  reference.mailbox().publish_sensors(3, {3.9, -1.0, 25.0});
  engine.step(workload);
  reference.step(workload);
  for (std::size_t c = 0; c < cells; ++c) {
    ASSERT_EQ(engine.soc()[c], reference.soc()[c]) << "cell " << c;
  }
  EXPECT_EQ(engine.ingest_stats().dropped_sensor_reports, 2u);

  // The consolidated stats are copyable, aggregate with +=, and reset —
  // the shape a sharded parent sums across worker processes.
  IngestStats total = engine.ingest_stats();
  total += engine.ingest_stats();
  EXPECT_EQ(total.dropped_sensor_reports, 4u);
  EXPECT_EQ(total.dropped_workload_overrides, 2u);
  engine.reset_ingest_stats();
  EXPECT_EQ(engine.ingest_stats(), IngestStats{});
}

TEST(LiveServing, SynchronousReseedRejectsNonFiniteSensors) {
  // The synchronous side of the same policy: init_from_sensors and
  // reseed_from_sensors throw before touching any state, naming the row.
  const core::TwoBranchNet net = testing::make_fitted_net(13);
  const std::size_t cells = 9;
  util::Rng rng(19);
  const nn::Matrix sensors0 = random_sensors(cells, rng);
  FleetEngine engine(net, cells, {.threads = 1});
  engine.init_from_sensors(sensors0);
  const std::vector<double> before(engine.soc().begin(), engine.soc().end());

  nn::Matrix bad = sensors0;
  bad(4, 2) = std::numeric_limits<double>::quiet_NaN();
  try {
    engine.init_from_sensors(bad);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("row 4"), std::string::npos)
        << e.what();
  }

  nn::Matrix one(1, 3);
  one(0, 0) = std::numeric_limits<double>::infinity();
  one(0, 1) = -1.0;
  one(0, 2) = 25.0;
  const std::vector<std::size_t> target = {2};
  EXPECT_THROW(engine.reseed_from_sensors(target, one),
               std::invalid_argument);

  // Rejected synchronously means rejected wholly: no cell was reseeded.
  for (std::size_t c = 0; c < cells; ++c) {
    EXPECT_EQ(engine.soc()[c], before[c]) << "cell " << c;
  }
  EXPECT_EQ(engine.ingest_stats().dropped_sensor_reports, 0u);
}

TEST(LiveServing, WorkloadOverrideIsStickyAcrossRunFastPath) {
  // A drained override replaces the staged row from its tick on — also
  // under run()'s shared row.
  const core::TwoBranchNet net = testing::make_fitted_net(9);
  const std::size_t cells = 10;
  FleetEngine engine(net, cells, {.threads = 2});
  const std::vector<double> start(cells, 0.9);
  engine.set_soc(start);
  engine.run(-2.0, 25.0, 60.0, 2);

  const WorkloadOverride forecast{-4.5, 18.0, 90.0};
  engine.mailbox().publish_workload(5, forecast);
  engine.run(-2.0, 25.0, 60.0, 3);  // restages the shared row; override wins

  core::InferenceWorkspace ws;
  double shared = 0.9;
  double overridden = 0.9;
  for (int t = 0; t < 2; ++t) {
    shared = util::clamp01(net.predict_soc(shared, -2.0, 25.0, 60.0, ws));
  }
  overridden = shared;
  for (int t = 0; t < 3; ++t) {
    shared = util::clamp01(net.predict_soc(shared, -2.0, 25.0, 60.0, ws));
    overridden = util::clamp01(net.predict_soc(
        overridden, forecast.avg_current, forecast.avg_temp_c,
        forecast.horizon_s, ws));
  }
  for (std::size_t c = 0; c < cells; ++c) {
    EXPECT_EQ(engine.soc()[c], c == 5 ? overridden : shared) << "cell " << c;
  }
}

TEST(LiveServing, ClearWorkloadOverrideRestoresSteppedRows) {
  // Overrides are sticky but reversible: after clear_workload_override the
  // cell follows the step()/run() rows again from the next tick.
  const core::TwoBranchNet net = testing::make_fitted_net(9);
  const std::size_t cells = 6;
  // Unclamped: the fixture net predicts below 0 on these rows, and the
  // clamp would flatten the override's divergence into 0 == 0.
  FleetEngine engine(net, cells, {.threads = 2, .clamp_soc = false});
  std::vector<double> start(cells, 0.8);
  engine.set_soc(start);
  nn::Matrix workload(cells, 3);
  for (std::size_t c = 0; c < cells; ++c) {
    workload(c, 0) = -2.0;
    workload(c, 1) = 25.0;
    workload(c, 2) = 60.0;
  }

  engine.mailbox().publish_workload(2, {-5.0, 15.0, 120.0});
  engine.step(workload);  // drains: cell 2 diverges under the override
  ASSERT_TRUE(engine.has_workload_override(2));
  EXPECT_FALSE(engine.has_workload_override(0));
  EXPECT_NE(engine.soc()[2], engine.soc()[0]);

  engine.clear_workload_override(2);
  EXPECT_FALSE(engine.has_workload_override(2));
  // Re-converge: same SoC + same row from here on means identical values.
  std::vector<double> level(cells, 0.7);
  engine.set_soc(level);
  engine.step(workload);
  for (std::size_t c = 1; c < cells; ++c) {
    EXPECT_EQ(engine.soc()[c], engine.soc()[0]) << "cell " << c;
  }

  engine.mailbox().publish_workload(3, {-5.0, 15.0, 120.0});
  engine.step(workload);
  ASSERT_TRUE(engine.has_workload_override(3));
  engine.clear_workload_overrides();
  EXPECT_FALSE(engine.has_workload_override(3));
  EXPECT_THROW(engine.clear_workload_override(cells), std::invalid_argument);
  EXPECT_THROW((void)engine.has_workload_override(cells),
               std::invalid_argument);
}

TEST(LiveServing, IngestUnderLoadLandsInDeterministicFinalState) {
  // Producers hammer the mailbox while the fleet ticks: mid-run states are
  // timing-dependent (a publish lands on this tick or the next), but no
  // tick may tear, and after the producers finish the LAST published
  // messages fully determine the next tick.
  const core::TwoBranchNet net = testing::make_fitted_net(9);
  const std::size_t cells = 64;
  const int ticks = 100;
  FleetEngine engine(net, cells, {.threads = 4});
  util::Rng rng(13);
  engine.init_from_sensors(random_sensors(cells, rng));
  const nn::Matrix workload = random_workload(cells, rng);

  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      const std::size_t begin = cells * p / 2;
      const std::size_t end = cells * (p + 1) / 2;
      util::Rng prng(100 + p);
      while (!stop.load(std::memory_order_relaxed)) {
        for (std::size_t cell = begin; cell < end; ++cell) {
          engine.mailbox().publish_sensors(
              cell, {prng.uniform(2.8, 4.2), prng.uniform(-6.0, 3.0),
                     prng.uniform(-5.0, 45.0)});
          engine.mailbox().publish_workload(
              cell, {prng.uniform(-6.0, 3.0), prng.uniform(-5.0, 45.0),
                     prng.uniform(10.0, 600.0)});
        }
      }
    });
  }
  for (int t = 0; t < ticks; ++t) {
    engine.step(workload);
    for (const double soc : engine.soc()) {
      ASSERT_GE(soc, 0.0);  // clamp holds through every racy drain
      ASSERT_LE(soc, 1.0);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : producers) t.join();
  EXPECT_EQ(engine.ticks(), static_cast<std::uint64_t>(ticks));

  // Deterministic epilogue: publish one known final message per cell, then
  // tick twice. The first tick drains every racy leftover plus our finals
  // (latest wins); from there the state is exactly computable.
  nn::Matrix final_sensors = random_sensors(cells, rng);
  const WorkloadOverride final_forecast{-3.25, 21.5, 75.0};
  for (std::size_t cell = 0; cell < cells; ++cell) {
    engine.mailbox().publish_sensors(cell,
                                     {final_sensors(cell, 0),
                                      final_sensors(cell, 1),
                                      final_sensors(cell, 2)});
    engine.mailbox().publish_workload(cell, final_forecast);
  }
  engine.step(workload);

  FleetEngine reference(net, cells, {.threads = 1});
  reference.init_from_sensors(final_sensors);
  nn::Matrix ref_workload(cells, 3);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    ref_workload(cell, 0) = final_forecast.avg_current;
    ref_workload(cell, 1) = final_forecast.avg_temp_c;
    ref_workload(cell, 2) = final_forecast.horizon_s;
  }
  reference.step(ref_workload);
  for (std::size_t c = 0; c < cells; ++c) {
    ASSERT_EQ(engine.soc()[c], reference.soc()[c]) << "cell " << c;
  }
}

TEST(LiveServing, HotSwapUnderLoadEveryTickUsesExactlyOneModel) {
  // Models A and B produce different predictions; a swapper thread flips
  // between them as fast as it can while the fleet ticks. Every tick's
  // result must equal A-applied-to-pre-state or B-applied-to-pre-state for
  // ALL cells at once — a torn tick (some shards on A, some on B) cannot.
  const core::TwoBranchNet net_a = testing::make_fitted_net(9);
  const core::TwoBranchNet net_b = testing::make_fitted_net(77);
  const std::size_t cells = 64;
  const int ticks = 200;
  const std::size_t threads = 4;

  FleetEngine engine(net_a, cells, {.threads = threads});
  FleetEngine ref_a(net_a, cells, {.threads = threads});
  FleetEngine ref_b(net_b, cells, {.threads = threads});
  util::Rng rng(21);
  const nn::Matrix sensors = random_sensors(cells, rng);
  const nn::Matrix workload = random_workload(cells, rng);
  engine.init_from_sensors(sensors);

  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    // Pre-built snapshots: the swap itself is just an atomic publish, so
    // the swapper genuinely races many swaps into every tick.
    const auto snap_a = std::make_shared<const core::TwoBranchSnapshot>(
        net_a, core::Precision::kFloat64);
    const auto snap_b = std::make_shared<const core::TwoBranchSnapshot>(
        net_b, core::Precision::kFloat64);
    bool flip = false;
    while (!stop.load(std::memory_order_relaxed)) {
      engine.swap_model(flip ? snap_b : snap_a);
      flip = !flip;
    }
  });

  std::vector<double> pre(cells);
  int used_a = 0;
  int used_b = 0;
  for (int t = 0; t < ticks; ++t) {
    std::copy(engine.soc().begin(), engine.soc().end(), pre.begin());
    engine.step(workload);
    ref_a.set_soc(pre);
    ref_a.step(workload);
    ref_b.set_soc(pre);
    ref_b.step(workload);
    const bool matches_a =
        std::memcmp(engine.soc().data(), ref_a.soc().data(),
                    cells * sizeof(double)) == 0;
    const bool matches_b =
        std::memcmp(engine.soc().data(), ref_b.soc().data(),
                    cells * sizeof(double)) == 0;
    ASSERT_TRUE(matches_a || matches_b)
        << "tick " << t << " mixed models across shards";
    used_a += matches_a ? 1 : 0;
    used_b += matches_b ? 1 : 0;
  }
  stop.store(true, std::memory_order_relaxed);
  swapper.join();
  // No tick dropped, and the swap actually landed mid-run (both models
  // must have served at least one tick for the test to mean anything).
  EXPECT_EQ(engine.ticks(), static_cast<std::uint64_t>(ticks));
  EXPECT_GT(used_a, 0) << "model A never served a tick";
  EXPECT_GT(used_b, 0) << "model B never served a tick";
}

TEST(LiveServing, SwapModelBetweenTicksIsDeterministic) {
  const core::TwoBranchNet net_a = testing::make_fitted_net(9);
  const core::TwoBranchNet net_b = testing::make_fitted_net(77);
  const std::size_t cells = 41;
  util::Rng rng(5);
  const nn::Matrix workload = random_workload(cells, rng);
  std::vector<double> start(cells);
  for (auto& s : start) s = rng.uniform(0.05, 0.95);

  FleetEngine swapped(net_a, cells, {.threads = 2});
  swapped.set_soc(start);
  swapped.step(workload);
  swapped.swap_model(net_b);  // builds a fresh snapshot from the net
  swapped.step(workload);

  FleetEngine all_a(net_a, cells, {.threads = 2});
  all_a.set_soc(start);
  all_a.step(workload);
  FleetEngine all_b(net_b, cells, {.threads = 2});
  all_b.set_soc({all_a.soc().begin(), all_a.soc().end()});
  all_b.step(workload);
  for (std::size_t c = 0; c < cells; ++c) {
    EXPECT_EQ(swapped.soc()[c], all_b.soc()[c]) << "cell " << c;
  }
}

TEST(LiveServing, RolloutSwapAppliesToTheNextRunWhole) {
  const core::TwoBranchNet net_a = testing::make_fitted_net(9);
  const core::TwoBranchNet net_b = testing::make_fitted_net(77);
  const std::vector<data::Trace> fleet = testing::synthetic_fleet(12, 19);
  const std::vector<data::WorkloadSchedule> schedules =
      data::build_workload_schedules(fleet, 30.0);

  RolloutEngine engine(net_a, {.threads = 2});
  const std::vector<core::Rollout> before = engine.run(schedules);
  engine.swap_model(net_b);
  const std::vector<core::Rollout> after = engine.run(schedules);

  RolloutEngine pure_a(net_a, {.threads = 2});
  RolloutEngine pure_b(net_b, {.threads = 2});
  const std::vector<core::Rollout> want_a = pure_a.run(schedules);
  const std::vector<core::Rollout> want_b = pure_b.run(schedules);
  ASSERT_EQ(before.size(), want_a.size());
  for (std::size_t l = 0; l < before.size(); ++l) {
    ASSERT_EQ(before[l].soc, want_a[l].soc) << "lane " << l;
    ASSERT_EQ(after[l].soc, want_b[l].soc) << "lane " << l;
  }
}

TEST(LiveServing, SwapModelValidates) {
  const core::TwoBranchNet net = testing::make_fitted_net(9);
  FleetEngine fleet(net, 4, {.threads = 1});
  EXPECT_THROW(fleet.swap_model(nullptr), std::invalid_argument);
  const auto f32_snapshot = std::make_shared<const core::TwoBranchSnapshot>(
      net, core::Precision::kFloat32);
  EXPECT_THROW(fleet.swap_model(f32_snapshot), std::invalid_argument);

  RolloutEngine rollout(net, {.threads = 1});
  EXPECT_THROW(rollout.swap_model(nullptr), std::invalid_argument);
  EXPECT_THROW(rollout.swap_model(f32_snapshot), std::invalid_argument);

  // A net whose Branch 2 does not chain is rejected when its snapshot is
  // built, before anything is published or any pending message drained:
  // the next tick serves the old model exactly like a fleet that never
  // saw the swap.
  const core::TwoBranchNet mischained = testing::make_mischained_net(9);
  FleetEngine untouched(net, 4, {.threads = 1});
  util::Rng rng(47);
  const nn::Matrix sensors = random_sensors(4, rng);
  const nn::Matrix workload = random_workload(4, rng);
  for (FleetEngine* f : {&fleet, &untouched}) {
    f->init_from_sensors(sensors);
    f->mailbox().publish_sensors(2, {3.9, -1.5, 25.0});
    f->mailbox().publish_workload(1, {-2.0, 25.0, 60.0});
  }
  EXPECT_THROW(fleet.swap_model(mischained), std::invalid_argument);
  EXPECT_THROW(rollout.swap_model(mischained), std::invalid_argument);
  fleet.step(workload);
  untouched.step(workload);
  EXPECT_EQ(fleet.ticks(), 1u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(fleet.soc()[i], untouched.soc()[i]) << "cell " << i;
  }
}

TEST(LiveServing, ParamDrainBitwiseEqualsSynchronousSequence) {
  // The param plane's core contract: interleaving publish_params with
  // ticks is bitwise identical to calling set_cell_params synchronously
  // before the same ticks — at 1, 2, and 8 threads and at both serving
  // precisions (physics advances are always f64, so the equivalence is
  // exact under kFloat32 too). Params only steer physics-mode cells, so
  // the fleet mixes modes to make the equivalence observable.
  const core::TwoBranchNet net = testing::make_fitted_net(9);
  const std::size_t cells = 97;
  const std::size_t ticks = 6;
  util::Rng rng(41);
  const nn::Matrix sensors0 = random_sensors(cells, rng);
  const nn::Matrix workload = random_workload(cells, rng);
  std::vector<CellMode> modes(cells, CellMode::kCascade);
  for (std::size_t c = 0; c < cells; c += 3) modes[c] = CellMode::kPhysicsOnly;

  // Deterministic update script: per tick, ~1 cell in 4 gets new params.
  struct ParamTick {
    std::vector<std::size_t> cells;
    std::vector<core::CellParams> params;
  };
  util::Rng prng(43);
  std::vector<ParamTick> script(ticks);
  for (std::size_t t = 0; t < ticks; ++t) {
    for (std::size_t c = 0; c < cells; ++c) {
      if ((c * 5 + t) % 4 != 0) continue;
      script[t].cells.push_back(c);
      script[t].params.push_back({.capacity_ah = prng.uniform(1.5, 3.5),
                                  .coulombic_eff = prng.uniform(0.9, 1.0)});
    }
  }

  for (const core::Precision precision :
       {core::Precision::kFloat64, core::Precision::kFloat32}) {
    FleetEngine reference(net, cells,
                          {.threads = 1, .precision = precision});
    reference.set_cell_modes(modes);
    reference.init_from_sensors(sensors0);
    std::vector<std::vector<double>> ref_soc_per_tick;
    for (std::size_t t = 0; t < ticks; ++t) {
      for (std::size_t i = 0; i < script[t].cells.size(); ++i) {
        reference.set_cell_params(script[t].cells[i], script[t].params[i]);
      }
      reference.step(workload);
      ref_soc_per_tick.emplace_back(reference.soc().begin(),
                                    reference.soc().end());
    }

    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      FleetEngine engine(net, cells,
                         {.threads = threads, .precision = precision});
      engine.set_cell_modes(modes);
      engine.init_from_sensors(sensors0);
      for (std::size_t t = 0; t < ticks; ++t) {
        for (std::size_t i = 0; i < script[t].cells.size(); ++i) {
          const core::CellParams& p = script[t].params[i];
          engine.mailbox().publish_params(
              script[t].cells[i], {p.capacity_ah, p.coulombic_eff, 0.0});
        }
        engine.step(workload);  // params drain at the top of the tick
        for (std::size_t c = 0; c < cells; ++c) {
          ASSERT_EQ(engine.soc()[c], ref_soc_per_tick[t][c])
              << "tick " << t << " cell " << c << " threads " << threads
              << " precision " << static_cast<int>(precision);
        }
      }
      EXPECT_EQ(engine.ingest_stats().dropped_param_updates, 0u);
    }
  }
}

TEST(LiveServing, InvalidParamUpdatesAreSkippedAndCounted) {
  // The drain's validity bar is is_finite AND core::is_valid: a NaN
  // capacity, a FINITE capacity of 0 (which would poison the Eq. 1
  // divisor without tripping any isfinite check), a negative capacity,
  // and an efficiency above 1 are all dropped and counted, leaving the
  // tick bitwise identical to no publish at all.
  const core::TwoBranchNet net = testing::make_fitted_net(11);
  const std::size_t cells = 24;
  util::Rng rng(23);
  const nn::Matrix sensors0 = random_sensors(cells, rng);
  const nn::Matrix workload = random_workload(cells, rng);
  const double nan = std::numeric_limits<double>::quiet_NaN();

  FleetEngine engine(net, cells, {.threads = 2});
  FleetEngine reference(net, cells, {.threads = 2});
  std::vector<CellMode> modes(cells, CellMode::kPhysicsOnly);
  engine.set_cell_modes(modes);
  reference.set_cell_modes(modes);
  engine.init_from_sensors(sensors0);
  reference.init_from_sensors(sensors0);

  engine.mailbox().publish_params(3, {nan, 1.0, 0.0});
  engine.mailbox().publish_params(5, {0.0, 1.0, 0.0});
  engine.mailbox().publish_params(7, {-2.0, 1.0, 0.0});
  engine.mailbox().publish_params(9, {3.0, 1.5, 0.0});
  engine.step(workload);
  reference.step(workload);
  for (std::size_t c = 0; c < cells; ++c) {
    ASSERT_EQ(engine.soc()[c], reference.soc()[c]) << "cell " << c;
  }
  EXPECT_EQ(engine.ingest_stats(),
            (IngestStats{.dropped_param_updates = 4}));
  // The dropped updates did not touch the cells' params.
  EXPECT_EQ(engine.cell_params(3), core::CellParams{});
  EXPECT_EQ(engine.cell_params(5), core::CellParams{});

  // A later valid update recovers the cell — nothing was latched.
  engine.mailbox().publish_params(3, {2.5, 0.98, 0.0});
  engine.step(workload);
  reference.set_cell_params(3, {.capacity_ah = 2.5, .coulombic_eff = 0.98});
  reference.step(workload);
  for (std::size_t c = 0; c < cells; ++c) {
    ASSERT_EQ(engine.soc()[c], reference.soc()[c]) << "cell " << c;
  }
  EXPECT_EQ(engine.cell_params(3),
            (core::CellParams{.capacity_ah = 2.5, .coulombic_eff = 0.98}));

  engine.reset_ingest_stats();
  EXPECT_EQ(engine.ingest_stats(), IngestStats{});
}

TEST(LiveServing, PhysicsModeCellsAdvanceWithEq1) {
  // A physics-mode cell ignores the NN write-back and advances with
  // Eq. 1 from its own params — across step(), run() (whose shared row
  // Eq. 1 must read as true f64, not as the staged f32 panel), and under a
  // workload override.
  const core::TwoBranchNet net = testing::make_fitted_net(9);
  const std::size_t cells = 40;
  FleetEngine engine(net, cells, {.threads = 2});
  EXPECT_EQ(engine.cell_mode(7), CellMode::kCascade);  // default
  engine.set_cell_mode(7, CellMode::kPhysicsOnly);
  engine.set_cell_params(7, {.capacity_ah = 2.0, .coulombic_eff = 0.95});
  EXPECT_THROW(engine.set_cell_mode(cells, CellMode::kCascade),
               std::invalid_argument);
  EXPECT_THROW((void)engine.cell_mode(cells), std::invalid_argument);
  EXPECT_THROW((void)engine.cell_params(cells), std::invalid_argument);
  EXPECT_THROW(engine.set_cell_params(7, {.capacity_ah = 0.0}),
               std::invalid_argument);

  const std::vector<double> start(cells, 0.8);
  engine.set_soc(start);
  nn::Matrix workload(cells, 3);
  for (std::size_t c = 0; c < cells; ++c) {
    workload(c, 0) = -3.0;
    workload(c, 1) = 25.0;
    workload(c, 2) = 120.0;
  }
  engine.step(workload);

  // Physics cell: one clamped Eq. 1 step by hand.
  const core::CellParams p7{.capacity_ah = 2.0, .coulombic_eff = 0.95};
  EXPECT_EQ(engine.soc()[7],
            core::eq1_predict_clamped(0.8, -3.0, 120.0, p7));
  // Cascade cells: bitwise the all-cascade engine.
  FleetEngine all_nn(net, cells, {.threads = 2});
  all_nn.set_soc(start);
  all_nn.step(workload);
  for (std::size_t c = 0; c < cells; ++c) {
    if (c == 7) continue;
    EXPECT_EQ(engine.soc()[c], all_nn.soc()[c]) << "cell " << c;
  }

  // run(): the shared row drives Eq. 1 for the physics cell.
  double expect7 = engine.soc()[7];
  engine.run(-2.0, 25.0, 60.0, 3);
  for (int t = 0; t < 3; ++t) {
    expect7 = core::eq1_predict_clamped(expect7, -2.0, 60.0, p7);
  }
  EXPECT_EQ(engine.soc()[7], expect7);

  // An override wins over the shared row for physics cells too.
  engine.mailbox().publish_workload(7, {-4.0, 20.0, 90.0});
  engine.run(-2.0, 25.0, 60.0, 2);
  for (int t = 0; t < 2; ++t) {
    expect7 = core::eq1_predict_clamped(expect7, -4.0, 90.0, p7);
  }
  EXPECT_EQ(engine.soc()[7], expect7);
}

TEST(LiveServing, SharedSnapshotServesManyEngines) {
  // A retrained model is converted once and swapped into a whole fleet of
  // engines — the deployment shape swap_model(shared_ptr) exists for.
  const core::TwoBranchNet net_a = testing::make_fitted_net(9);
  const core::TwoBranchNet net_b = testing::make_fitted_net(77);
  const std::size_t cells = 16;
  util::Rng rng(7);
  const nn::Matrix workload = random_workload(cells, rng);
  const std::vector<double> start(cells, 0.6);

  const auto snapshot = std::make_shared<const core::TwoBranchSnapshot>(
      net_b, core::Precision::kFloat64);
  FleetEngine one(net_a, cells, {.threads = 1});
  FleetEngine two(net_a, cells, {.threads = 2});
  one.swap_model(snapshot);
  two.swap_model(snapshot);
  one.set_soc(start);
  two.set_soc(start);
  one.step(workload);
  two.step(workload);
  FleetEngine native_b(net_b, cells, {.threads = 1});
  native_b.set_soc(start);
  native_b.step(workload);
  for (std::size_t c = 0; c < cells; ++c) {
    EXPECT_EQ(one.soc()[c], native_b.soc()[c]) << "cell " << c;
    EXPECT_EQ(two.soc()[c], native_b.soc()[c]) << "cell " << c;
  }
}

}  // namespace
}  // namespace socpinn::serve
