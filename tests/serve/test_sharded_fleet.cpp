/// Multi-process fleet sharding over the shared-memory transport: the
/// headline contract is BITWISE parity — for any process x thread split,
/// at either precision, a ShardedFleet's SoC equals one FleetEngine over
/// the whole fleet after any command sequence, including streaming ingest
/// through shm and a mid-run model hot-swap.
///
/// The forking tests are skipped under ThreadSanitizer: the workers are
/// fork()ed without exec, which TSan's runtime does not support. The
/// transport's lock-free pieces (the mailbox seqlock, atomic_ref
/// protocols) are TSan-covered by the in-process suites instead.

#include "serve/sharded_fleet.hpp"

#include <gtest/gtest.h>

#include <signal.h>  // NOLINT(modernize-deprecated-headers)
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/fleet_engine.hpp"
#include "serve/shm_transport.hpp"
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

#define SOCPINN_SKIP_IF_NO_FORK()                                           \
  do {                                                                      \
    if (SOCPINN_FORK_TESTS_DISABLED) {                                      \
      GTEST_SKIP() << "fork-without-exec workers are incompatible with "    \
                      "ThreadSanitizer";                                    \
    }                                                                       \
  } while (0)

namespace socpinn::serve {
namespace {

TEST(PartitionFleet, MatchesThreadPoolBoundariesAndCoversTheFleet) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                              std::size_t{103}, std::size_t{1000}}) {
    for (std::size_t workers = 1; workers <= std::min<std::size_t>(n, 6);
         ++workers) {
      const std::vector<Shard> shards = partition_fleet(n, workers);
      ASSERT_EQ(shards.size(), workers);
      std::size_t expect_begin = 0;
      for (std::size_t w = 0; w < workers; ++w) {
        const ShardRange range = shard_range(n, w, workers);
        EXPECT_EQ(shards[w].index, w);
        EXPECT_EQ(shards[w].begin, range.begin);
        EXPECT_EQ(shards[w].end, range.end);
        EXPECT_EQ(shards[w].begin, expect_begin);
        EXPECT_GT(shards[w].size(), 0u) << "empty shard " << w << " of "
                                        << workers << " over " << n;
        expect_begin = shards[w].end;
      }
      EXPECT_EQ(expect_begin, n);
    }
  }
}

TEST(PartitionFleet, RejectsDegeneratePartitions) {
  EXPECT_THROW(partition_fleet(10, 0), std::invalid_argument);
  EXPECT_THROW(partition_fleet(3, 4), std::invalid_argument);
}

TEST(WorkerSegmentLayout, OffsetsAreAlignedAndDisjoint) {
  const WorkerSegmentLayout layout{257};
  EXPECT_EQ(layout.header_offset(), 0u);
  EXPECT_EQ(layout.mailbox_offset() % alignof(MailboxSlot), 0u);
  EXPECT_EQ(layout.soc_offset(),
            layout.mailbox_offset() + 257 * sizeof(MailboxSlot));
  EXPECT_EQ(layout.input_offset(), layout.soc_offset() + 257 * sizeof(double));
  EXPECT_EQ(layout.total_size(),
            layout.input_offset() + 257 * 3 * sizeof(double));

  // A fleet segment: one header per worker, then the per-cell arrays.
  const WorkerSegmentLayout fleet{257, 3};
  for (std::size_t w = 0; w < 3; ++w) {
    EXPECT_EQ(fleet.header_offset(w), w * sizeof(WorkerHeader));
  }
  EXPECT_EQ(fleet.mailbox_offset(), 3 * sizeof(WorkerHeader));
  EXPECT_EQ(fleet.mailbox_offset() % 64, 0u);
  EXPECT_EQ(fleet.soc_offset(),
            fleet.mailbox_offset() + 257 * sizeof(MailboxSlot));
  EXPECT_EQ(fleet.input_offset(), fleet.soc_offset() + 257 * sizeof(double));
  EXPECT_EQ(fleet.total_size(),
            fleet.input_offset() + 257 * 3 * sizeof(double));
}

TEST(ModelRegion, PublishesVersionedBlobsReadableByVersion) {
  ModelRegion region(1024);
  EXPECT_EQ(region.version(), 0u);
  std::string out;
  EXPECT_EQ(region.read_if_newer(0, out), 0u);

  region.publish("first model");
  EXPECT_EQ(region.version(), 1u);
  EXPECT_EQ(region.read_if_newer(0, out), 1u);
  EXPECT_EQ(out, "first model");
  // Already-seen version: no copy, same version back.
  out = "untouched";
  EXPECT_EQ(region.read_if_newer(1, out), 1u);
  EXPECT_EQ(out, "untouched");

  region.publish("second, longer model blob");
  EXPECT_EQ(region.read_if_newer(1, out), 2u);
  EXPECT_EQ(out, "second, longer model blob");

  EXPECT_THROW(region.publish(std::string(2048, 'x')), std::invalid_argument);

  // The blob moves in whole words; a capacity that is not a multiple of
  // the word size still holds a blob of exactly that size.
  ModelRegion odd(13);
  odd.publish("thirteen byte");
  EXPECT_EQ(odd.read_if_newer(0, out), 1u);
  EXPECT_EQ(out, "thirteen byte");
  EXPECT_THROW(odd.publish("fourteen bytes"), std::invalid_argument);
}

/// Drives the same command sequence against both engines. The sequence
/// exercises every command kind: batched connect-time seed, direct SoC
/// seeding, per-cell workload steps, and a shared-row run.
template <typename Fleet>
void drive(Fleet& fleet, const nn::Matrix& sensors, const nn::Matrix& w1,
           const nn::Matrix& w2, std::span<const double> seed) {
  fleet.init_from_sensors(sensors);
  fleet.step(w1);
  fleet.run(-2.0, 25.0, 60.0, 3);
  fleet.set_soc(seed);
  fleet.step(w2);
}

void expect_bitwise_equal(std::span<const double> got,
                          std::span<const double> want, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t c = 0; c < got.size(); ++c) {
    ASSERT_EQ(std::memcmp(&got[c], &want[c], sizeof(double)), 0)
        << what << ": cell " << c << " diverged: " << got[c] << " vs "
        << want[c];
  }
}

TEST(ShardedFleet, BitwiseParityAcrossProcessThreadAndPrecisionSplits) {
  SOCPINN_SKIP_IF_NO_FORK();
  const core::TwoBranchNet net = testing::make_fitted_net(21);
  const std::size_t cells = 257;  // prime: every split has ragged shards
  util::Rng rng(11);
  const nn::Matrix sensors = testing::random_sensors(cells, rng);
  const nn::Matrix w1 = testing::random_workload(cells, rng);
  const nn::Matrix w2 = testing::random_workload(cells, rng);
  std::vector<double> seed(cells);
  for (auto& v : seed) v = rng.uniform(0.0, 1.0);

  for (const core::Precision precision :
       {core::Precision::kFloat64, core::Precision::kFloat32}) {
    FleetConfig ref_config;
    ref_config.threads = 3;  // any count: the engine is thread-invariant
    ref_config.precision = precision;
    FleetEngine reference(net, cells, ref_config);
    drive(reference, sensors, w1, w2, seed);

    for (const std::size_t workers : {1u, 2u, 4u}) {
      for (const std::size_t threads : {1u, 2u, 8u}) {
        ShardedFleetConfig config;
        config.workers = workers;
        config.threads_per_worker = threads;
        config.precision = precision;
        ShardedFleet fleet(net, cells, config);
        ASSERT_EQ(fleet.num_workers(), workers);
        drive(fleet, sensors, w1, w2, seed);
        ASSERT_EQ(fleet.ticks(), reference.ticks());
        expect_bitwise_equal(
            fleet.soc(), reference.soc(),
            (std::string("workers=") + std::to_string(workers) +
             " threads=" + std::to_string(threads) +
             (precision == core::Precision::kFloat32 ? " f32" : " f64"))
                .c_str());
      }
    }
  }
}

TEST(ShardedFleet, StreamingIngestParityIncludingNonFiniteDrops) {
  SOCPINN_SKIP_IF_NO_FORK();
  const core::TwoBranchNet net = testing::make_fitted_net(33);
  const std::size_t cells = 103;
  util::Rng rng(17);
  const nn::Matrix sensors = testing::random_sensors(cells, rng);
  const nn::Matrix workload = testing::random_workload(cells, rng);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  FleetEngine reference(net, cells, {});
  ShardedFleetConfig config;
  config.workers = 3;
  config.threads_per_worker = 2;
  ShardedFleet fleet(net, cells, config);

  reference.init_from_sensors(sensors);
  fleet.init_from_sensors(sensors);

  // Interleave valid publishes, superseded publishes (latest wins), and
  // non-finite ones (skip-and-count) — including cells on both sides of
  // the 103/3 shard boundaries (34 and 68).
  for (std::size_t c = 0; c < cells; c += 2) {
    const SensorReport report{3.5 + 0.001 * static_cast<double>(c), -1.0,
                              24.0};
    reference.mailbox().publish_sensors(c, report);
    fleet.publish_sensors(c, report);
  }
  for (const std::size_t c : {0u, 33u, 34u, 67u, 68u, 102u}) {
    const WorkloadOverride forecast{-2.5, 23.0,
                                    40.0 + static_cast<double>(c)};
    reference.mailbox().publish_workload(c, forecast);
    fleet.publish_workload(c, forecast);
  }
  // Superseded: a second publish before the drain replaces the first.
  reference.mailbox().publish_sensors(4, {3.9, -0.5, 25.0});
  fleet.publish_sensors(4, {3.9, -0.5, 25.0});
  // Dropped: one bad sensor report and two bad workload overrides, spread
  // across different shards.
  reference.mailbox().publish_sensors(35, {nan, -1.0, 24.0});
  fleet.publish_sensors(35, {nan, -1.0, 24.0});
  reference.mailbox().publish_workload(2, {-2.0, inf, 60.0});
  fleet.publish_workload(2, {-2.0, inf, 60.0});
  reference.mailbox().publish_workload(70, {-2.0, 25.0, -inf});
  fleet.publish_workload(70, {-2.0, 25.0, -inf});

  reference.step(workload);
  fleet.step(workload);
  expect_bitwise_equal(fleet.soc(), reference.soc(), "post-ingest step");

  const IngestStats expect = reference.ingest_stats();
  EXPECT_EQ(expect.dropped_sensor_reports, 1u);
  EXPECT_EQ(expect.dropped_workload_overrides, 2u);
  EXPECT_EQ(fleet.ingest_stats(), expect);

  // The overrides are sticky in every worker, like in-process.
  reference.step(workload);
  fleet.step(workload);
  expect_bitwise_equal(fleet.soc(), reference.soc(), "sticky override step");
}

TEST(ShardedFleet, ParamPlaneParityAcrossWorkerSplits) {
  SOCPINN_SKIP_IF_NO_FORK();
  // publish_params lands wait-free in the owning worker's shm mailbox and
  // set_cell_modes fans out over the input staging area; both must leave
  // the sharded fleet bitwise equal to one FleetEngine fed the synchronous
  // equivalents, at every worker split. Invalid updates are dropped and
  // counted in the worker, and ingest_stats() aggregates them.
  const core::TwoBranchNet net = testing::make_fitted_net(57);
  const std::size_t cells = 103;  // ragged shards at 2 and 4 workers
  util::Rng rng(29);
  const nn::Matrix sensors = testing::random_sensors(cells, rng);
  const nn::Matrix workload = testing::random_workload(cells, rng);
  const double nan = std::numeric_limits<double>::quiet_NaN();

  // Every third cell runs the physics lane so params actually steer SoC.
  std::vector<CellMode> modes(cells, CellMode::kCascade);
  for (std::size_t c = 0; c < cells; c += 3) modes[c] = CellMode::kPhysicsOnly;

  FleetEngine reference(net, cells, {.threads = 2});
  reference.set_cell_modes(modes);
  reference.init_from_sensors(sensors);
  // Synchronous equivalents of the published updates below.
  for (std::size_t c = 0; c < cells; c += 5) {
    reference.set_cell_params(
        c, {.capacity_ah = 2.0 + 0.01 * static_cast<double>(c),
            .coulombic_eff = 0.95});
  }
  reference.step(workload);
  reference.run(-1.5, 24.0, 90.0, 2);
  const IngestStats ref_stats = reference.ingest_stats();

  for (const std::size_t workers : {1u, 2u, 4u}) {
    ShardedFleetConfig config;
    config.workers = workers;
    config.threads_per_worker = 2;
    ShardedFleet fleet(net, cells, config);
    fleet.set_cell_modes(modes);
    fleet.init_from_sensors(sensors);
    for (std::size_t c = 0; c < cells; c += 5) {
      fleet.publish_params(c,
                           {2.0 + 0.01 * static_cast<double>(c), 0.95, 0.0});
    }
    // Dropped in the owning worker, not the parent: NaN capacity, a
    // finite zero (poisons the Eq. 1 divisor), and an efficiency > 1 —
    // spread across shard boundaries (103/4 splits at 26/52/78).
    fleet.publish_params(1, {nan, 1.0, 0.0});
    fleet.publish_params(53, {0.0, 1.0, 0.0});
    fleet.publish_params(79, {3.0, 1.5, 0.0});
    fleet.step(workload);
    fleet.run(-1.5, 24.0, 90.0, 2);

    expect_bitwise_equal(
        fleet.soc(), reference.soc(),
        (std::string("param plane, workers=") + std::to_string(workers))
            .c_str());
    const IngestStats stats = fleet.ingest_stats();
    EXPECT_EQ(stats.dropped_param_updates, 3u) << "workers=" << workers;
    EXPECT_EQ(stats.dropped_sensor_reports, ref_stats.dropped_sensor_reports);
    EXPECT_THROW(fleet.publish_params(cells, {3.0, 1.0, 0.0}),
                 std::out_of_range);
  }
}

TEST(ShardedFleet, MidRunHotSwapAdoptsAtTheNextCommandBitwise) {
  SOCPINN_SKIP_IF_NO_FORK();
  const core::TwoBranchNet net_a = testing::make_fitted_net(21);
  const core::TwoBranchNet net_b = testing::make_fitted_net(99);
  const std::size_t cells = 64;
  util::Rng rng(5);
  const nn::Matrix sensors = testing::random_sensors(cells, rng);
  const nn::Matrix workload = testing::random_workload(cells, rng);

  for (const core::Precision precision :
       {core::Precision::kFloat64, core::Precision::kFloat32}) {
    FleetConfig ref_config;
    ref_config.precision = precision;
    FleetEngine reference(net_a, cells, ref_config);
    ShardedFleetConfig config;
    config.workers = 2;
    config.threads_per_worker = 2;
    config.precision = precision;
    ShardedFleet fleet(net_a, cells, config);
    EXPECT_EQ(fleet.model_version(), 1u);

    reference.init_from_sensors(sensors);
    fleet.init_from_sensors(sensors);
    reference.step(workload);
    fleet.step(workload);

    // Publish between commands: the engine applies it on its next tick,
    // every worker adopts at its next command — the same boundary.
    reference.swap_model(net_b);
    fleet.swap_model(net_b);
    EXPECT_EQ(fleet.model_version(), 2u);

    reference.step(workload);
    fleet.step(workload);
    expect_bitwise_equal(fleet.soc(), reference.soc(), "post-swap step");
    for (std::size_t w = 0; w < fleet.num_workers(); ++w) {
      EXPECT_EQ(fleet.worker_model_version(w), 2u) << "worker " << w;
    }

    reference.run(-1.5, 22.0, 45.0, 2);
    fleet.run(-1.5, 22.0, 45.0, 2);
    expect_bitwise_equal(fleet.soc(), reference.soc(), "post-swap run");
  }
}

TEST(ShardedFleet, ValidatesArgumentsBeforeAnyWorkerSeesThem) {
  SOCPINN_SKIP_IF_NO_FORK();
  const core::TwoBranchNet net = testing::make_fitted_net(21);
  ShardedFleetConfig config;
  config.workers = 2;
  ShardedFleet fleet(net, 16, config);

  EXPECT_THROW(fleet.init_from_sensors(nn::Matrix(8, 3)),
               std::invalid_argument);
  EXPECT_THROW(fleet.init_from_sensors(nn::Matrix(16, 4)),
               std::invalid_argument);
  nn::Matrix bad(16, 3);
  for (auto& v : bad.data()) v = 3.7;
  bad(11, 1) = std::numeric_limits<double>::quiet_NaN();
  try {
    fleet.init_from_sensors(bad);
    FAIL() << "expected the non-finite row to be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cell 11"), std::string::npos);
  }

  EXPECT_THROW(fleet.set_soc(std::vector<double>(8, 0.5)),
               std::invalid_argument);
  EXPECT_THROW(fleet.step(nn::Matrix(16, 2)), std::invalid_argument);
  EXPECT_THROW(fleet.publish_sensors(16, {3.7, -1.0, 25.0}),
               std::out_of_range);
  EXPECT_THROW((void)fleet.worker_model_version(2), std::out_of_range);

  // Rejected inputs left no partial state: the fleet still works.
  util::Rng rng(3);
  fleet.init_from_sensors(testing::random_sensors(16, rng));

  // Non-finite workload rows are rejected in the parent, like sensors.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> before(fleet.soc().begin(), fleet.soc().end());
  nn::Matrix bad_workload = testing::random_workload(16, rng);
  bad_workload(13, 0) = kNaN;
  try {
    fleet.step(bad_workload);
    FAIL() << "expected the non-finite workload row to be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cell 13"), std::string::npos);
  }
  bad_workload(13, 0) = -1.0;
  bad_workload(2, 2) = kInf;
  EXPECT_THROW(fleet.step(bad_workload), std::invalid_argument);
  EXPECT_THROW(fleet.run(-2.0, kNaN, 60.0, 2), std::invalid_argument);
  EXPECT_THROW(fleet.run(-2.0, 25.0, kInf, 2), std::invalid_argument);
  // Seeded SoC values are checked in the parent too.
  std::vector<double> bad_soc(16, 0.5);
  bad_soc[9] = kNaN;
  try {
    fleet.set_soc(bad_soc);
    FAIL() << "expected the non-finite SoC to be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cell 9"), std::string::npos);
  }
  bad_soc[9] = 0.5;
  bad_soc[15] = kInf;
  EXPECT_THROW(fleet.set_soc(bad_soc), std::invalid_argument);
  bad_soc[15] = -kInf;
  EXPECT_THROW(fleet.set_soc(bad_soc), std::invalid_argument);
  EXPECT_EQ(fleet.ticks(), 0u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(fleet.soc()[i], before[i]) << "cell " << i;
  }

  fleet.step(testing::random_workload(16, rng));
  EXPECT_EQ(fleet.ticks(), 1u);

  // A net no worker could serve is rejected in the parent and never
  // published: every worker keeps serving version 1.
  EXPECT_THROW(fleet.swap_model(testing::make_mischained_net(21)),
               std::invalid_argument);
  EXPECT_EQ(fleet.model_version(), 1u);
  fleet.step(testing::random_workload(16, rng));
  EXPECT_EQ(fleet.ticks(), 2u);
  for (std::size_t w = 0; w < fleet.num_workers(); ++w) {
    EXPECT_EQ(fleet.worker_model_version(w), 1u) << "worker " << w;
  }
}

TEST(ShardedFleet, RequiresATrainedNetAndANonDegeneratePartition) {
  const core::TwoBranchNet untrained;  // transport must serialize the model
  EXPECT_THROW(ShardedFleet(untrained, 8, {}), std::invalid_argument);
  // Snapshotted in the parent before anything forks.
  EXPECT_THROW(ShardedFleet(testing::make_mischained_net(21), 8, {}),
               std::invalid_argument);

  const core::TwoBranchNet net = testing::make_fitted_net(21);
  EXPECT_THROW(ShardedFleet(net, 0, {}), std::invalid_argument);
  ShardedFleetConfig too_many;
  too_many.workers = 9;
  EXPECT_THROW(ShardedFleet(net, 8, too_many), std::invalid_argument);
}

/// Pids of the calling process's children, oldest first. Reads the
/// calling thread's list, so call it from a single-threaded process.
std::vector<pid_t> child_pids() {
  std::ifstream in("/proc/self/task/" + std::to_string(::getpid()) +
                   "/children");
  std::vector<pid_t> pids;
  for (pid_t pid = 0; in >> pid;) pids.push_back(pid);
  return pids;
}

/// In a 2-worker fleet that has stepped once, SIGKILLs worker 1; the next
/// step must throw naming it. Returns what went wrong, or "" on success.
std::string kill_a_worker_mid_run(bool ignore_sigchld) {
  if (ignore_sigchld) ::signal(SIGCHLD, SIG_IGN);
  const core::TwoBranchNet net = testing::make_fitted_net(21);
  util::Rng rng(5);
  ShardedFleetConfig config;
  config.workers = 2;
  auto fleet = std::make_unique<ShardedFleet>(net, 16, config);
  fleet->step(testing::random_workload(16, rng));
  const std::vector<pid_t> workers = child_pids();
  if (workers.size() != 2) {
    return "expected 2 worker pids, read " + std::to_string(workers.size());
  }
  ::kill(workers[1], SIGKILL);
  try {
    fleet->step(testing::random_workload(16, rng));
    return "the step after the kill did not throw";
  } catch (const std::runtime_error& e) {
    if (std::string(e.what()).find("worker 1") == std::string::npos) {
      return std::string("the error does not name worker 1: ") + e.what();
    }
  }
  const auto start = std::chrono::steady_clock::now();
  fleet.reset();
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  if (ignore_sigchld && took.count() >= 1.0) {
    return "destroying the fleet took " + std::to_string(took.count()) + " s";
  }
  return "";
}

TEST(ShardedFleet, DiagnosesAWorkerThatDiedMidRun) {
  SOCPINN_SKIP_IF_NO_FORK();
  // README promises that a dead worker is diagnosed, not hung on. With
  // SIGCHLD ignored the kernel reaps the worker itself, so waitpid fails
  // with ECHILD instead of returning its pid. Each leg runs in a forked
  // child under alarm(20), so a hang fails the test instead of ctest.
  for (const bool ignore_sigchld : {false, true}) {
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::alarm(20);
      std::string failure;
      try {
        failure = kill_a_worker_mid_run(ignore_sigchld);
      } catch (const std::exception& e) {
        failure = std::string("unexpected exception: ") + e.what();
      }
      if (!failure.empty()) std::fprintf(stderr, "%s\n", failure.c_str());
      std::fflush(stderr);
      ::_exit(failure.empty() ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << (ignore_sigchld ? "SIGCHLD ignored: " : "default SIGCHLD: ")
        << (WIFSIGNALED(status)
                ? "killed by signal " + std::to_string(WTERMSIG(status))
                : "exit status " + std::to_string(WEXITSTATUS(status)));
  }
}

/// In a 2-worker fleet of 64 cells that has stepped once, stops worker 1,
/// SIGKILLs worker 0 and continues worker 1 300 ms later. The next step
/// must throw naming worker 0, and only once worker 1 has finished it:
/// worker 1's slice of soc() then equals a reference FleetEngine's.
/// Call it from a single-threaded process. Returns what went wrong, or ""
/// on success.
std::string fail_a_command_under_a_stopped_worker() {
  const core::TwoBranchNet net = testing::make_fitted_net(21);
  util::Rng rng(5);
  const nn::Matrix sensors = testing::random_sensors(64, rng);
  const nn::Matrix w1 = testing::random_workload(64, rng);
  const nn::Matrix w2 = testing::random_workload(64, rng);
  FleetEngine reference(net, 64, {.threads = 1});
  reference.init_from_sensors(sensors);
  reference.step(w1);
  reference.step(w2);

  ShardedFleetConfig config;
  config.workers = 2;
  ShardedFleet fleet(net, 64, config);
  fleet.init_from_sensors(sensors);
  fleet.step(w1);
  const std::vector<pid_t> workers = child_pids();
  if (workers.size() != 2) {
    return "expected 2 worker pids, read " + std::to_string(workers.size());
  }
  ::kill(workers[1], SIGSTOP);
  int status = 0;
  if (::waitpid(workers[1], &status, WUNTRACED) != workers[1] ||
      !WIFSTOPPED(status)) {
    return "worker 1 did not stop";
  }
  ::kill(workers[0], SIGKILL);
  std::thread waker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ::kill(workers[1], SIGCONT);
  });
  std::string failure;
  try {
    fleet.step(w2);
    failure = "the step after the kill did not throw";
  } catch (const std::runtime_error& e) {
    if (std::string(e.what()).find("worker 0") == std::string::npos) {
      failure = std::string("the error does not name worker 0: ") + e.what();
    }
  }
  // Compared before the join: once the waker has run, worker 1 could
  // finish the step after the throw and hide an early one.
  const Shard shard = fleet.shards()[1];
  for (std::size_t c = shard.begin; c < shard.end && failure.empty(); ++c) {
    if (std::memcmp(&fleet.soc()[c], &reference.soc()[c], sizeof(double)) !=
        0) {
      failure = "cell " + std::to_string(c) +
                " of worker 1 does not hold the failed step's SoC: the "
                "error was raised while worker 1 was still running it";
    }
  }
  waker.join();
  return failure;
}

TEST(ShardedFleet, FailedCommandWaitsForEveryLiveWorker) {
  SOCPINN_SKIP_IF_NO_FORK();
  // A command that fails on one worker must not return while another is
  // still running it: the caller's next command would restage the input
  // rows under it. Runs in a forked child under alarm(20), so a hang
  // fails the test instead of ctest.
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::alarm(20);
    std::string failure;
    try {
      failure = fail_a_command_under_a_stopped_worker();
    } catch (const std::exception& e) {
      failure = std::string("unexpected exception: ") + e.what();
    }
    if (!failure.empty()) std::fprintf(stderr, "%s\n", failure.c_str());
    std::fflush(stderr);
    ::_exit(failure.empty() ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << (WIFSIGNALED(status)
              ? "killed by signal " + std::to_string(WTERMSIG(status))
              : "exit status " + std::to_string(WEXITSTATUS(status)));
}

/// Makes the calling process a subreaper, then builds a 1-worker fleet in
/// a child that runs one command and _exits without destroying the fleet.
/// The orphaned worker is reparented here, and must exit with status 2
/// within 10 s; one that does not is killed, so a failure leaks no
/// process. Call it from a single-threaded process. Returns what went
/// wrong, or "" on success.
std::string orphan_a_worker() {
  if (::prctl(PR_SET_CHILD_SUBREAPER, 1) != 0) {
    return "PR_SET_CHILD_SUBREAPER failed";
  }
  const pid_t owner = ::fork();
  if (owner < 0) return "fork failed";
  if (owner == 0) {
    try {
      const core::TwoBranchNet net = testing::make_fitted_net(21);
      util::Rng rng(5);
      ShardedFleet fleet(net, 8, {});
      fleet.step(testing::random_workload(8, rng));
      ::_exit(0);  // the fleet is never destroyed: its worker is orphaned
    } catch (...) {
    }
    ::_exit(1);
  }
  int status = 0;
  if (::waitpid(owner, &status, 0) != owner || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return "the fleet's process did not run its command";
  }
  // The owner's exit reparented its worker here before it could be reaped.
  const std::vector<pid_t> orphans = child_pids();
  if (orphans.size() != 1) {
    return "expected 1 orphaned worker, read " +
           std::to_string(orphans.size());
  }
  for (int ms = 0; ms < 10000; ++ms) {
    if (::waitpid(orphans[0], &status, WNOHANG) == orphans[0]) {
      return WIFEXITED(status) && WEXITSTATUS(status) == 2
                 ? ""
                 : "the orphaned worker did not exit with status 2";
    }
    ::usleep(1000);
  }
  ::kill(orphans[0], SIGKILL);
  ::waitpid(orphans[0], nullptr, 0);
  return "the orphaned worker was still running after 10 s";
}

TEST(ShardedFleet, WorkerExitsWhenItsParentDies) {
  SOCPINN_SKIP_IF_NO_FORK();
  // A worker's command wait checks that its parent is alive; an orphan
  // must leave instead of waiting forever. Runs in a forked child under
  // alarm(20), so a hang fails the test instead of ctest.
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::alarm(20);
    const std::string failure = orphan_a_worker();
    if (!failure.empty()) std::fprintf(stderr, "%s\n", failure.c_str());
    std::fflush(stderr);
    ::_exit(failure.empty() ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << (WIFSIGNALED(status)
              ? "killed by signal " + std::to_string(WTERMSIG(status))
              : "exit status " + std::to_string(WEXITSTATUS(status)));
}

}  // namespace
}  // namespace socpinn::serve
