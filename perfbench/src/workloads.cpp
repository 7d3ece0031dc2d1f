#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "data/windowing.hpp"
#include "inputs.hpp"
#include "ladder.hpp"
#include "ledger.hpp"
#include "oracle.hpp"
#include "serve/fleet_engine.hpp"
#include "serve/rollout_engine.hpp"
#include "serve/sharded_fleet.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using sp::core::Precision;

/// At least this many ops per timed phase, so p99 has 10 samples beyond it.
constexpr std::uint64_t kMinOps = 1000;
/// Set-up is repeated and its median reported.
constexpr std::size_t kSetupRepeats = 15;
/// Every kCheckEvery-th op is checked against the scalar reference on
/// kCheckCells sampled cells (or kCheckLanes sampled lanes).
constexpr std::uint64_t kCheckEvery = 8;
constexpr std::size_t kCheckCells = 16;
constexpr std::size_t kCheckLanes = 4;
constexpr std::uint64_t kCheckTag = 0x5eed;

/// fleet_ingest's open-loop rates, fixed in absolute messages per busy
/// second: sensor reports for about a tenth of the fleet per tick at the
/// 1 ms tick this workload was sized on, overrides and param updates at a
/// fifth of that, 1% of each kind non-finite, and a model swap every 250 ms.
constexpr double kSensorRateHz = 1.6e6;
constexpr double kOverrideRateHz = kSensorRateHz / 5.0;
constexpr double kParamRateHz = kSensorRateHz / 5.0;
constexpr double kNonfiniteShare = 0.01;
constexpr double kSwapEveryS = 0.25;
/// Latency samples kept per stream and second (every k-th message).
constexpr double kLatencySamplesPerS = 5000.0;
constexpr double kLatencyStreams = 3.0;
/// Messages generated and published per batch between ticks.
constexpr std::size_t kPublishChunk = 4096;

/// The clock of one timed phase. Its busy time is the wall time since the
/// phase began minus the benchmark's own work (the oracle and the message
/// generator). The open-loop schedule, visible latency and throughput all
/// run on busy time, so the load the engine sees per second of its own work
/// does not depend on how long the benchmark's bookkeeping takes.
struct PhaseClock {
  std::int64_t t0_ns = 0;
  std::int64_t bench_ns = 0;  ///< the benchmark's own work so far

  [[nodiscard]] std::int64_t busy_ns(std::int64_t wall_ns) const {
    return wall_ns - t0_ns - bench_ns;
  }
};

struct LoopStats {
  std::vector<double> op_ms;
  std::vector<double> visible_ms;
  /// Per tick, the median visible latency of the messages it applied.
  std::vector<double> visible_tick_ms;
  std::vector<double> late_ms;  ///< generator lateness behind the due time
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double cell_steps = 0.0;
  double busy_s = 0.0;  ///< the phase's busy time
  double wall_s = 0.0;
  double op_s = 0.0;       ///< time inside the public calls
  double publish_s = 0.0;  ///< time inside the mailbox publish calls
  /// Per iteration, the op's cell steps over the iteration's busy time.
  std::vector<double> iter_rates;
  IngestTally ingest;
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual const char* op_name() const = 0;
  /// Construction plus warm-up: what setup_s measures.
  virtual void setup() = 0;
  virtual void teardown() = 0;
  /// Untimed full check of the state set-up left behind.
  virtual bool verify_setup() { return true; }
  /// Prepares a timed phase, before its clock starts: its schedule restarts
  /// at busy time 0.
  virtual void start_phase() {}
  /// Open-loop work due before the next op (publishes, swaps). Work of the
  /// benchmark's own done here is booked to `clock`.
  virtual void between_ops(SpanRecorder* /*rec*/, std::int32_t /*parent*/,
                           PhaseClock& /*clock*/, LoopStats& /*stats*/) {}
  virtual void before_op(bool /*check*/) {}
  /// One public call; returns the cell (or lane) steps it advanced.
  virtual double op() = 0;
  /// Resolves the op that returned at busy time `returned_ns`: ingest
  /// accounting and, when `check`, the sampled reference check. False marks
  /// a failed op.
  virtual bool after_op(bool /*check*/, std::int64_t /*returned_ns*/,
                        LoopStats& /*stats*/) {
    return true;
  }
  [[nodiscard]] virtual bool open_loop() const { return false; }
  [[nodiscard]] virtual IngestTally ingest_tally() const { return {}; }
  [[nodiscard]] virtual LadderShape shape() const = 0;
};

// ------------------------------------------------------------- fleets

struct FleetSpec {
  std::size_t cells = 0;
  std::size_t threads = 2;  ///< engine threads, or worker processes
  Precision precision = Precision::kFloat64;
  std::size_t physics_every = 0;
  bool ingest = false;
  bool sharded = false;
};

/// One open-loop message feed: its stream, the publish log, the sampling
/// stride of its latency samples, and the batch being published.
struct Feed {
  Feed(MessageStream s, std::size_t cells, std::uint64_t sample_stride)
      : stream(std::move(s)), ledger(cells), stride(sample_stride) {}

  MessageStream stream;
  KindLedger<Message> ledger;
  std::uint64_t stride = 1;
  std::vector<Message> due;
};

class FleetWorkload final : public Workload {
 public:
  FleetWorkload(const FleetSpec& spec, std::uint64_t seed)
      : spec_(spec),
        seed_(seed),
        net_a_(make_net(kModelSeedA)),
        net_b_(make_net(kModelSeedB)),
        rows_(workload_rows(spec.cells, seed)),
        sensors_(sensor_rows(spec.cells, seed)),
        modes_(cell_modes(spec.cells, spec.physics_every, seed)),
        check_rng_(stream_rng(seed, kCheckTag)) {
    for (std::size_t c = 0; c < spec.cells; ++c) {
      all_cells_.push_back(c);
      if (modes_[c] == sp::serve::CellMode::kPhysicsOnly) {
        physics_cells_.push_back(c);
      }
    }
  }

  const char* op_name() const override {
    return spec_.sharded ? "ShardedFleet::step" : "FleetEngine::step";
  }

  void setup() override {
    if (spec_.sharded) {
      sp::serve::ShardedFleetConfig config;
      config.workers = spec_.threads;
      config.threads_per_worker = 1;
      config.precision = spec_.precision;
      sharded_ = std::make_unique<sp::serve::ShardedFleet>(net_a_, spec_.cells,
                                                           config);
      sharded_->init_from_sensors(sensors_);
      sharded_->step(rows_);
    } else {
      sp::serve::FleetConfig config;
      config.threads = spec_.threads;
      config.precision = spec_.precision;
      engine_ = std::make_unique<sp::serve::FleetEngine>(net_a_, spec_.cells,
                                                         config);
      if (spec_.physics_every != 0) engine_->set_cell_modes(modes_);
      engine_->init_from_sensors(sensors_);
      if (spec_.ingest) {
        // Warm the drain staging at full shard width: every cell re-seeds
        // once from its connect-time sensors (no sticky state results).
        for (std::size_t c = 0; c < spec_.cells; ++c) {
          engine_->mailbox().publish_sensors(
              c, {sensors_(c, 0), sensors_(c, 1), sensors_(c, 2)});
        }
      }
      engine_->step(rows_);
    }
    mirror_ = std::make_unique<FleetMirror>(modes_, sp::core::CellParams{});
    serving_b_ = false;
    tick_ = 0;
    feeds_.clear();
  }

  void teardown() override {
    engine_.reset();
    sharded_.reset();
  }

  void start_phase() override {
    next_swap_s_ = kSwapEveryS;
    if (!spec_.ingest) return;
    if (feeds_.empty()) {
      for (const MsgKind kind :
           {MsgKind::kSensors, MsgKind::kWorkload, MsgKind::kParams}) {
        const auto stride = static_cast<std::uint64_t>(
            std::max(1.0, std::ceil(rate_of(kind) / kLatencySamplesPerS)));
        feeds_.push_back(
            std::make_unique<Feed>(stream_of(kind), spec_.cells, stride));
        feeds_.back()->due.reserve(kPublishChunk);
      }
      return;
    }
    // A later phase replays the schedule from its start; the publish logs
    // continue, so the drop accounting stays cumulative like ingest_stats().
    for (auto& f : feeds_) f->stream.restart();
  }

  bool open_loop() const override { return spec_.ingest; }

  void between_ops(SpanRecorder* rec, std::int32_t parent, PhaseClock& clock,
                   LoopStats& stats) override {
    if (!spec_.ingest) return;
    const double now_s = static_cast<double>(clock.busy_ns(now_ns())) * 1e-9;
    {
      const ScopedSpan span(rec, "Mailbox::publish_sensors", parent);
      publish_due(*feeds_[0], now_s, clock, stats);
    }
    {
      const ScopedSpan span(rec, "Mailbox::publish_workload", parent);
      publish_due(*feeds_[1], now_s, clock, stats);
    }
    {
      const ScopedSpan span(rec, "Mailbox::publish_params", parent);
      publish_due(*feeds_[2], now_s, clock, stats);
    }
    if (now_s >= next_swap_s_) {
      const ScopedSpan span(rec, "FleetEngine::swap_model", parent);
      serving_b_ = !serving_b_;
      engine_->swap_model(serving_b_ ? net_b_ : net_a_);
      next_swap_s_ += kSwapEveryS;
    }
  }

  void before_op(bool check) override {
    if (!check) return;
    const std::span<const double> soc = current_soc();
    for (std::size_t i = 0; i < kCheckCells; ++i) {
      sample_[i] = check_rng_.index(spec_.cells);
      before_[i] = soc[sample_[i]];
    }
  }

  double op() override {
    if (spec_.sharded) {
      sharded_->step(rows_);
    } else {
      engine_->step(rows_);
    }
    return static_cast<double>(spec_.cells);
  }

  bool after_op(bool check, std::int64_t returned_ns,
                LoopStats& stats) override {
    bool ok = true;
    if (spec_.ingest) {
      const double returned_ms = static_cast<double>(returned_ns) * 1e-6;
      const std::size_t first = stats.visible_ms.size();
      for (auto& f : feeds_) {
        const MsgKind kind = f->stream.kind();
        f->ledger.drain([&](std::size_t, const Message& m) {
          mirror_->apply(kind, m, tick_);
          if (m.seq % f->stride == 0) {
            stats.visible_ms.push_back(returned_ms -
                                       f->stream.due_s(m.seq) * 1e3);
          }
        });
      }
      if (stats.visible_ms.size() > first) {
        stats.visible_tick_ms.push_back(
            median(std::vector<double>(stats.visible_ms.begin() + first,
                                       stats.visible_ms.end())));
      }
      const sp::serve::IngestStats got = engine_->ingest_stats();
      ok = got.dropped_sensor_reports == feeds_[0]->ledger.tally().dropped &&
           got.dropped_workload_overrides ==
               feeds_[1]->ledger.tally().dropped &&
           got.dropped_param_updates == feeds_[2]->ledger.tally().dropped;
    }
    if (check) {
      const sp::core::TwoBranchNet& net = serving_b_ ? net_b_ : net_a_;
      const double tol =
          spec_.precision == Precision::kFloat32 ? kTolF32 : kTolF64;
      const std::span<const double> soc = current_soc();
      for (std::size_t i = 0; i < kCheckCells; ++i) {
        const double want =
            mirror_->expected(net, ws_, sample_[i], before_[i], rows_, tick_);
        if (!(std::fabs(soc[sample_[i]] - want) <= tol)) ok = false;
      }
    }
    ++tick_;
    return ok;
  }

  IngestTally ingest_tally() const override {
    IngestTally t;
    for (const auto& f : feeds_) t += f->ledger.tally();
    return t;
  }

  LadderShape shape() const override {
    LadderShape s;
    s.width = spec_.cells / spec_.threads;
    s.reseed_width = std::max<std::size_t>(s.width / 10, 1);
    s.threads = spec_.threads;
    s.physics_every = spec_.physics_every;
    s.precision = spec_.precision;
    s.seed = seed_;
    return s;
  }

 private:
  [[nodiscard]] std::span<const double> current_soc() const {
    return spec_.sharded ? sharded_->soc() : engine_->soc();
  }

  /// The kind's seeded schedule: params go to physics cells only.
  [[nodiscard]] MessageStream stream_of(MsgKind k) const {
    return MessageStream(k, k == MsgKind::kParams ? physics_cells_ : all_cells_,
                         rate_of(k), kNonfiniteShare, seed_);
  }

  static double rate_of(MsgKind k) {
    switch (k) {
      case MsgKind::kSensors:
        return kSensorRateHz;
      case MsgKind::kWorkload:
        return kOverrideRateHz;
      case MsgKind::kParams:
        return kParamRateHz;
    }
    return kSensorRateHz;
  }

  /// Publishes every message of `f` due by busy time `now_s`, at most
  /// kPublishChunk at a time, so a host stall that leaves a long backlog
  /// does not grow the batch buffer (and peak RSS). Generating and logging
  /// the messages is the benchmark's own work, booked to `clock`; only the
  /// mailbox calls run on busy time.
  void publish_due(Feed& f, double now_s, PhaseClock& clock,
                   LoopStats& stats) {
    const MsgKind kind = f.stream.kind();
    while (f.stream.next_due_s() <= now_s) {
      std::int64_t t = now_ns();
      f.due.clear();
      while (f.due.size() < kPublishChunk && f.stream.next_due_s() <= now_s) {
        const Message m = f.stream.next();
        f.ledger.publish(m.cell, m, drain_accepts(kind, m));
        f.due.push_back(m);
      }
      std::int64_t next = now_ns();
      clock.bench_ns += next - t;
      t = next;

      publish(kind, f.due);

      next = now_ns();
      stats.publish_s += static_cast<double>(next - t) * 1e-9;
      const double published_ms =
          static_cast<double>(clock.busy_ns(next)) * 1e-6;
      for (const Message& m : f.due) {
        if (m.seq % f.stride == 0) {
          stats.late_ms.push_back(published_ms - f.stream.due_s(m.seq) * 1e3);
        }
      }
      clock.bench_ns += now_ns() - next;
    }
  }

  void publish(MsgKind kind, const std::vector<Message>& batch) {
    sp::serve::Mailbox& mailbox = engine_->mailbox();
    switch (kind) {
      case MsgKind::kSensors:
        for (const Message& m : batch) {
          mailbox.publish_sensors(m.cell, {m.a, m.b, m.c});
        }
        break;
      case MsgKind::kWorkload:
        for (const Message& m : batch) {
          mailbox.publish_workload(m.cell, {m.a, m.b, m.c});
        }
        break;
      case MsgKind::kParams:
        for (const Message& m : batch) {
          mailbox.publish_params(m.cell, {m.a, m.b, m.c});
        }
        break;
    }
  }

  FleetSpec spec_;
  std::uint64_t seed_;
  sp::core::TwoBranchNet net_a_;
  sp::core::TwoBranchNet net_b_;
  sp::nn::Matrix rows_;
  sp::nn::Matrix sensors_;
  std::vector<sp::serve::CellMode> modes_;
  std::vector<std::size_t> all_cells_;
  std::vector<std::size_t> physics_cells_;
  sp::util::Rng check_rng_;
  sp::core::InferenceWorkspace ws_;

  std::unique_ptr<sp::serve::FleetEngine> engine_;
  std::unique_ptr<sp::serve::ShardedFleet> sharded_;
  std::unique_ptr<FleetMirror> mirror_;
  std::vector<std::unique_ptr<Feed>> feeds_;
  bool serving_b_ = false;
  std::uint64_t tick_ = 0;
  double next_swap_s_ = kSwapEveryS;
  std::size_t sample_[kCheckCells] = {};
  double before_[kCheckCells] = {};
};

// ------------------------------------------------------------- rollout

constexpr std::size_t kRolloutLanes = 256;
constexpr std::size_t kRolloutThreads = 2;

class RolloutWorkload final : public Workload {
 public:
  explicit RolloutWorkload(std::uint64_t seed)
      : seed_(seed),
        net_(make_net(kModelSeedA)),
        inputs_(rollout_inputs(kRolloutLanes, kRolloutThreads, seed)),
        check_rng_(stream_rng(seed, kCheckTag)) {}

  const char* op_name() const override { return "RolloutEngine::run_into"; }

  void setup() override {
    const std::size_t n = inputs_.traces.size();
    schedules_ = sp::data::build_workload_schedules(inputs_.traces,
                                                    kRolloutHorizonS);
    plans_.assign(n, {});
    lanes_.assign(n, {});
    lane_steps_ = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (inputs_.closed_loop[i] != 0) {
        plans_[i] = sp::data::build_reanchor_plan(
            inputs_.traces[i], kRolloutHorizonS, kReanchorEvery);
      }
      lanes_[i] = {&schedules_[i], inputs_.kinds[i], inputs_.params[i],
                   inputs_.closed_loop[i] != 0 ? &plans_[i] : nullptr};
      lane_steps_ += static_cast<double>(schedules_[i].num_steps());
    }
    sp::serve::RolloutConfig config;
    config.threads = kRolloutThreads;
    engine_ = std::make_unique<sp::serve::RolloutEngine>(net_, config);
    out_.assign(n, {});
    engine_->run_into(lanes_, out_);
  }

  void teardown() override { engine_.reset(); }

  bool verify_setup() override {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (!rollout_matches(net_, ws_, lanes_[i], out_[i], kTolF64)) {
        return false;
      }
    }
    return true;
  }

  double op() override {
    engine_->run_into(lanes_, out_);
    return lane_steps_;
  }

  bool after_op(bool check, std::int64_t, LoopStats&) override {
    if (!check) return true;
    bool ok = true;
    for (std::size_t k = 0; k < kCheckLanes; ++k) {
      const std::size_t i = check_rng_.index(lanes_.size());
      ok = ok && rollout_matches(net_, ws_, lanes_[i], out_[i], kTolF64);
    }
    return ok;
  }

  LadderShape shape() const override {
    LadderShape s;
    s.width = kRolloutLanes / kRolloutThreads;
    s.reseed_width = s.width / 8;
    s.threads = kRolloutThreads;
    s.seed = seed_;
    return s;
  }

 private:
  std::uint64_t seed_;
  sp::core::TwoBranchNet net_;
  RolloutInputs inputs_;
  sp::util::Rng check_rng_;
  sp::core::InferenceWorkspace ws_;
  std::vector<sp::data::WorkloadSchedule> schedules_;
  std::vector<sp::data::ReanchorPlan> plans_;
  std::vector<sp::serve::RolloutLane> lanes_;
  std::vector<sp::core::Rollout> out_;
  std::unique_ptr<sp::serve::RolloutEngine> engine_;
  double lane_steps_ = 0.0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "fleet_steady") {
    // 8192-column shard panels: f64 activations (about 4.6 MB per shard)
    // spill the 2 MB L2. At 65536 cells the run-to-run spread on a shared
    // host was 0.14-0.35 against 0.075 here.
    return std::make_unique<FleetWorkload>(
        FleetSpec{.cells = 16384, .threads = 2}, seed);
  }
  if (name == "fleet_ingest") {
    return std::make_unique<FleetWorkload>(
        FleetSpec{.cells = 16384,
                  .threads = 2,
                  .precision = Precision::kFloat32,
                  .physics_every = 8,
                  .ingest = true},
        seed);
  }
  if (name == "rollout_planning") {
    return std::make_unique<RolloutWorkload>(seed);
  }
  if (name == "sharded_fleet") {
    return std::make_unique<FleetWorkload>(
        FleetSpec{.cells = 16384, .threads = 2, .sharded = true}, seed);
  }
  throw std::invalid_argument("unknown workload: " + name);
}

void reserve_touched(std::vector<double>& v, std::size_t n) {
  v.resize(n);
  v.clear();
}

/// Runs ops back to back for `seconds` (and at least kMinOps ops).
LoopStats timed_loop(Workload& w, double seconds, SpanRecorder* rec) {
  LoopStats st;
  const IngestTally tally0 = w.ingest_tally();
  w.start_phase();
  // Room for every sample up front, touched so that peak RSS does not
  // depend on how many samples a run takes.
  const auto samples = static_cast<std::size_t>(
      (1 << 16) + seconds * kLatencySamplesPerS * kLatencyStreams);
  reserve_touched(st.op_ms, 1 << 16);
  reserve_touched(st.iter_rates, 1 << 16);
  reserve_touched(st.visible_tick_ms, 1 << 16);
  reserve_touched(st.visible_ms, samples);
  reserve_touched(st.late_ms, samples);
  PhaseClock clock{.t0_ns = now_ns()};
  const std::int64_t t0 = clock.t0_ns;
  const auto deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t prev_return = t0;
  for (std::uint64_t i = 0;; ++i) {
    const std::int64_t now = now_ns();
    if (now >= deadline && st.attempted >= kMinOps) break;
    const std::int64_t busy0 = clock.busy_ns(now);
    const ScopedSpan iteration(rec, "iteration");
    w.between_ops(rec, iteration.id(), clock, st);
    const bool check = i % kCheckEvery == 0;
    std::int64_t c0 = now_ns();
    w.before_op(check);
    const std::int64_t issued = now_ns();
    clock.bench_ns += issued - c0;
    if (!w.open_loop()) {
      // Closed loop: the next op is due when the previous one returned.
      st.late_ms.push_back(static_cast<double>(issued - prev_return) * 1e-6);
    }
    bool ok = true;
    double steps = 0.0;
    {
      const ScopedSpan span(rec, w.op_name(), iteration.id());
      try {
        steps = w.op();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "op %llu failed: %s\n",
                     static_cast<unsigned long long>(i), e.what());
        ok = false;
      }
    }
    const std::int64_t returned = now_ns();
    prev_return = returned;
    st.op_ms.push_back(static_cast<double>(returned - issued) * 1e-6);
    st.op_s += static_cast<double>(returned - issued) * 1e-9;
    ++st.attempted;
    st.cell_steps += steps;
    {
      const ScopedSpan span(rec, "oracle", iteration.id());
      c0 = now_ns();
      if (ok && !w.after_op(check, clock.busy_ns(returned), st)) ok = false;
      const std::int64_t c1 = now_ns();
      clock.bench_ns += c1 - c0;
      st.iter_rates.push_back(
          steps / (static_cast<double>(clock.busy_ns(c1) - busy0) * 1e-9));
    }
    if (!ok) ++st.failed;
  }
  const std::int64_t end = now_ns();
  st.busy_s = static_cast<double>(clock.busy_ns(end)) * 1e-9;
  st.wall_s = static_cast<double>(end - t0) * 1e-9;
  st.ingest = w.ingest_tally().since(tally0);
  if (!w.open_loop()) {
    st.visible_ms = st.op_ms;
    st.visible_tick_ms = st.op_ms;
  }
  return st;
}

double peak_rss_mib() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux; children counts reaped shard workers.
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

void add(std::vector<Metric>& out, const char* name, double value,
         const char* unit) {
  out.push_back({name, value, unit});
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fleet_steady", "fleet_ingest", "rollout_planning", "sharded_fleet"};
  return names;
}

RunResult run_workload(const RunConfig& config) {
  const std::unique_ptr<Workload> w = make_workload(config.workload,
                                                    config.seed);
  RunResult res;
  std::vector<double> setup_s;
  const std::size_t repeats = config.trace ? 1 : kSetupRepeats;
  for (std::size_t i = 0; i < repeats; ++i) {
    w->teardown();
    const std::int64_t t = now_ns();
    w->setup();
    setup_s.push_back(static_cast<double>(now_ns() - t) * 1e-9);
  }
  if (!w->verify_setup()) {
    std::fprintf(stderr, "set-up state does not match the reference\n");
    res.correct = false;
    ++res.failed;
  }

  if (!config.trace) {
    const LoopStats st = timed_loop(*w, config.seconds, nullptr);
    const Summary op = summarize(st.op_ms);
    const Summary vis = summarize(st.visible_ms);
    res.attempted += st.attempted;
    res.failed += st.failed;
    // Medians over iterations (ticks): a stall of the shared host stretches
    // a few iterations, and the messages due during them, without moving
    // the median.
    add(res.metrics, "cell_steps_per_s", median(st.iter_rates), "1/s");
    add(res.metrics, "op_p50_ms", op.p50, "ms");
    add(res.metrics, "visible_p50_ms", median(st.visible_tick_ms), "ms");
    add(res.metrics, "setup_s", median(setup_s), "s");
    w->teardown();
    add(res.metrics, "peak_rss_mib", peak_rss_mib(), "MiB");
    // The p99s do not hold within a tenth from run to run on a shared
    // host, so they are reported beside the result, not as metrics.
    add(res.diagnostics, "op_p99_ms", op.p99, "ms");
    add(res.diagnostics, "visible_msg_p50_ms", vis.p50, "ms");
    add(res.diagnostics, "visible_p99_ms", vis.p99, "ms");
    add(res.diagnostics, "op_samples", static_cast<double>(op.count),
        "count");
    add(res.diagnostics, "visible_samples", static_cast<double>(vis.count),
        "count");
    add(res.diagnostics, "cell_steps_per_s_mean", st.cell_steps / st.busy_s,
        "1/s");
    const auto ops = static_cast<double>(st.attempted);
    add(res.diagnostics, "op_mean_ms", st.op_s / ops * 1e3, "ms");
    add(res.diagnostics, "publish_per_op_ms", st.publish_s / ops * 1e3, "ms");
    add(res.diagnostics, "bench_per_op_ms", (st.wall_s - st.busy_s) / ops * 1e3,
        "ms");
    add(res.diagnostics, "op_q1_ms", op.q1, "ms");
    add(res.diagnostics, "op_q3_ms", op.q3, "ms");
    add(res.diagnostics, "setup_repeats", static_cast<double>(repeats),
        "count");
    add(res.diagnostics, "generator_late_p99_ms", summarize(st.late_ms).p99,
        "ms");
    add(res.diagnostics, "msgs_published",
        static_cast<double>(st.ingest.published), "count");
    add(res.diagnostics, "msgs_dropped",
        static_cast<double>(st.ingest.dropped), "count");
  } else {
    SpanRecorder rec(std::size_t{1} << 21);
    const LoopStats plain = timed_loop(*w, config.seconds * 0.25, nullptr);
    const LoopStats traced = timed_loop(*w, config.seconds * 0.25, &rec);
    res.attempted += plain.attempted + traced.attempted;
    res.failed += plain.failed + traced.failed;
    const LadderShape shape = w->shape();
    w->teardown();
    res.metrics = run_ladder(shape, config.seconds * 0.5, &rec);

    const double plain_p50 = summarize(plain.op_ms).p50;
    const double traced_p50 = summarize(traced.op_ms).p50;
    add(res.metrics, "bench.trace_overhead_pct",
        (traced_p50 / plain_p50 - 1.0) * 100.0, "%");
    add(res.metrics, "bench.generator_late_p99_ms",
        summarize(plain.late_ms).p99, "ms");
    const IngestTally& t = traced.ingest;
    add(res.metrics, "serve.mailbox.published",
        static_cast<double>(t.published), "count");
    add(res.metrics, "serve.mailbox.applied", static_cast<double>(t.applied),
        "count");
    add(res.metrics, "serve.mailbox.coalesced",
        static_cast<double>(t.coalesced), "count");
    add(res.metrics, "serve.mailbox.dropped", static_cast<double>(t.dropped),
        "count");
    add(res.metrics, "serve.mailbox.applied_share",
        t.published == 0 ? 0.0
                         : static_cast<double>(t.applied) /
                               static_cast<double>(t.published),
        "ratio");
    // The benchmark loop's own share of each iteration: iteration span time
    // not covered by a public call or the oracle.
    const std::vector<Span>& spans = rec.spans();
    const std::vector<std::int64_t> self = rec.self_times();
    double iter_total = 0.0;
    double iter_self = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent == -1 &&
          std::string_view(spans[i].name) == "iteration") {
        iter_total += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
        iter_self += static_cast<double>(self[i]);
      }
    }
    add(res.metrics, "bench.loop_self_pct",
        iter_total > 0.0 ? iter_self / iter_total * 100.0 : 0.0, "%");
    add(res.diagnostics, "ladder_width", static_cast<double>(shape.width),
        "count");
    add(res.diagnostics, "spans_recorded", static_cast<double>(spans.size()),
        "count");
    add(res.diagnostics, "spans_dropped", static_cast<double>(rec.dropped()),
        "count");
    if (!config.spans_out.empty() && !rec.write_jsonl(config.spans_out)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   config.spans_out.c_str());
    }
  }
  if (res.failed != 0) res.correct = false;
  return res;
}

}  // namespace perfbench
