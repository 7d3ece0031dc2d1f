#include "ladder.hpp"

#include <algorithm>
#include <sstream>

#include "alloc_count.hpp"
#include "core/model_io.hpp"
#include "data/windowing.hpp"
#include "inputs.hpp"
#include "nn/cost_model.hpp"
#include "nn/dense.hpp"
#include "nn/panel.hpp"
#include "serve/fleet_engine.hpp"
#include "serve/mailbox.hpp"
#include "serve/rollout_engine.hpp"
#include "serve/sharded_fleet.hpp"
#include "serve/thread_pool.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using sp::core::Precision;

/// Median per-call time in ns of `fn`, over batches of at least 1 ms run
/// for about `budget_s` seconds (and at least five batches).
template <typename F>
double time_call_ns(F&& fn, double budget_s) {
  fn();  // warm: first-use allocation and lazy set-up are not measured
  std::size_t batch = 1;
  for (;;) {
    const std::int64_t t = now_ns();
    for (std::size_t i = 0; i < batch; ++i) fn();
    if (now_ns() - t >= 1'000'000 || batch >= (std::size_t{1} << 20)) break;
    batch *= 2;
  }
  std::vector<double> per_call;
  const auto end = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  do {
    const std::int64_t t = now_ns();
    for (std::size_t i = 0; i < batch; ++i) fn();
    per_call.push_back(static_cast<double>(now_ns() - t) /
                       static_cast<double>(batch));
  } while (now_ns() < end || per_call.size() < 5);
  return median(per_call);
}

/// Random 4 x n raw Branch-2 panel [SoC; avg I; avg T; N].
sp::nn::Matrix branch2_panel(std::size_t n, sp::util::Rng& rng) {
  sp::nn::Matrix m(4, n);
  for (std::size_t j = 0; j < n; ++j) {
    m(0, j) = rng.uniform(0.0, 1.0);
    m(1, j) = rng.uniform(-6.0, 3.0);
    m(2, j) = rng.uniform(-5.0, 45.0);
    m(3, j) = rng.uniform(10.0, 600.0);
  }
  return m;
}

template <typename T>
sp::nn::MatrixT<T> to_t(const sp::nn::Matrix& m) {
  sp::nn::MatrixT<T> out(m.rows(), m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      out(r, c) = static_cast<T>(m(r, c));
    }
  }
  return out;
}

/// The dense layers of an Mlp, in order, at scalar type T.
template <typename T>
struct DenseStack {
  std::vector<sp::nn::MatrixT<T>> w;
  std::vector<sp::nn::MatrixT<T>> b;
  std::vector<sp::nn::MatrixT<T>> act;

  explicit DenseStack(const sp::nn::Mlp& mlp) {
    for (std::size_t i = 0; i < mlp.num_layers(); ++i) {
      if (const auto* d = dynamic_cast<const sp::nn::Dense*>(&mlp.layer(i))) {
        w.push_back(to_t<T>(d->weights()));
        b.push_back(to_t<T>(d->bias()));
      }
    }
    act.resize(w.size());
  }

  /// Chains nn::dense_forward_columns through every dense layer (no
  /// activations: the kernel rung).
  void forward(const sp::nn::MatrixT<T>& in) {
    const sp::nn::MatrixT<T>* x = &in;
    for (std::size_t k = 0; k < w.size(); ++k) {
      sp::nn::dense_forward_columns(*x, w[k], b[k], act[k]);
      x = &act[k];
    }
  }

  /// Activation bytes read and written per column.
  [[nodiscard]] double bytes_per_col() const {
    double bytes = 0.0;
    for (const auto& m : w) {
      bytes += static_cast<double>((m.rows() + m.cols()) * sizeof(T));
    }
    return bytes;
  }
};

/// Rollout lanes of the rollout_planning workload plus the counts derived
/// from their schedules alone.
struct RolloutRung {
  RolloutInputs inputs;
  std::vector<sp::data::WorkloadSchedule> schedules;
  std::vector<sp::data::ReanchorPlan> plans;
  std::vector<sp::serve::RolloutLane> lanes;
  double lane_steps = 0.0;
  double reanchors = 0.0;

  RolloutRung(std::size_t lanes_n, std::size_t shards, std::uint64_t seed)
      : inputs(rollout_inputs(lanes_n, shards, seed)) {
    schedules =
        sp::data::build_workload_schedules(inputs.traces, kRolloutHorizonS);
    plans.assign(lanes_n, {});
    lanes.assign(lanes_n, {});
    for (std::size_t i = 0; i < lanes_n; ++i) {
      if (inputs.closed_loop[i] != 0) {
        plans[i] = sp::data::build_reanchor_plan(inputs.traces[i],
                                                 kRolloutHorizonS,
                                                 kReanchorEvery);
        reanchors += static_cast<double>(plans[i].size());
      }
      lanes[i] = {&schedules[i], inputs.kinds[i], inputs.params[i],
                  inputs.closed_loop[i] != 0 ? &plans[i] : nullptr};
      lane_steps += static_cast<double>(schedules[i].num_steps());
    }
  }

  /// Share of per-shard lane slots that advance a live lane, and the
  /// share of per-shard NN steps whose active cascade batch is below the
  /// panel threshold (the row-major path), from the shard boundaries.
  void shares(std::size_t shards, double& active_share,
              double& rowmajor_share) const {
    double live = 0.0;
    double slots = 0.0;
    double nn_steps = 0.0;
    double rowmajor = 0.0;
    for (std::size_t s = 0; s < shards; ++s) {
      const sp::serve::ShardRange r =
          sp::serve::shard_range(lanes.size(), s, shards);
      std::size_t max_steps = 0;
      for (std::size_t i = r.begin; i < r.end; ++i) {
        max_steps = std::max(max_steps, schedules[i].num_steps());
      }
      for (std::size_t step = 0; step < max_steps; ++step) {
        std::size_t alive = 0;
        std::size_t cascade = 0;
        for (std::size_t i = r.begin; i < r.end; ++i) {
          if (step >= schedules[i].num_steps()) continue;
          ++alive;
          if (lanes[i].kind == sp::serve::LaneKind::kCascade) ++cascade;
        }
        live += static_cast<double>(alive);
        slots += static_cast<double>(r.end - r.begin);
        if (cascade > 0) {
          nn_steps += 1.0;
          if (cascade < sp::nn::kColumnsMinBatch) rowmajor += 1.0;
        }
      }
    }
    active_share = slots > 0.0 ? live / slots : 0.0;
    rowmajor_share = nn_steps > 0.0 ? rowmajor / nn_steps : 0.0;
  }
};

}  // namespace

std::vector<Metric> run_ladder(const LadderShape& shape, double budget_s,
                               SpanRecorder* rec) {
  std::vector<Metric> out;
  const auto add = [&out](const char* name, double value, const char* unit) {
    out.push_back({name, value, unit});
  };
  const ScopedSpan ladder(rec, "ladder");
  constexpr double kRungs = 36.0;
  const double rung_s = budget_s / kRungs;
  const auto rung = [&](const char* name, auto&& fn) {
    const ScopedSpan span(rec, name, ladder.id());
    return time_call_ns(fn, rung_s);
  };

  const bool f32 = shape.precision == Precision::kFloat32;
  const std::size_t w = shape.width;
  const std::size_t r = shape.reseed_width;
  const std::size_t cells = w * shape.threads;
  const double wd = static_cast<double>(w);
  const double rd = static_cast<double>(r);
  const sp::core::TwoBranchNet net = make_net(kModelSeedA);
  const sp::core::TwoBranchNet net_b = make_net(kModelSeedB);
  sp::util::Rng rng = stream_rng(shape.seed, 0x1adde4);

  // Inputs at the workload's widths.
  const sp::nn::Matrix raw = branch2_panel(w, rng);
  const sp::nn::MatrixT<float> raw_f32 = to_t<float>(raw);
  sp::nn::Matrix scaled;
  net.scaler2().transform_columns_into(raw, scaled);
  const sp::nn::MatrixT<double> scaled_t = to_t<double>(scaled);
  const sp::nn::MatrixT<float> scaled_f32 = to_t<float>(scaled);
  const sp::nn::Matrix sensors = sensor_rows(r, shape.seed);
  sp::nn::MatrixT<float> sensors_cols_f32(3, std::max(r, sp::nn::kColumnsMinBatch));
  for (std::size_t j = 0; j < r; ++j) {
    for (std::size_t f = 0; f < 3; ++f) {
      sensors_cols_f32(f, j) = static_cast<float>(sensors(j, f));
    }
  }

  // --- nn: dense kernel, MLP panel, row-major MLP ---
  DenseStack<double> dense64(net.branch2());
  DenseStack<float> dense32(net.branch2());
  sp::nn::Mlp branch2 = net.branch2();
  const double macs = static_cast<double>(sp::nn::mlp_cost(branch2).macs);
  const double dense64_ns =
      rung("nn.dense.f64", [&] { dense64.forward(scaled_t); }) / wd;
  const double dense32_ns =
      rung("nn.dense.f32", [&] { dense32.forward(scaled_f32); }) / wd;
  add("nn.dense.f64.ns_per_col", dense64_ns, "ns");
  add("nn.dense.f32.ns_per_col", dense32_ns, "ns");
  for (const std::size_t narrow : {std::size_t{128}, std::size_t{64},
                                   std::size_t{32}}) {
    sp::util::Rng nrng = stream_rng(shape.seed, narrow);
    sp::nn::Matrix nscaled;
    net.scaler2().transform_columns_into(branch2_panel(narrow, nrng), nscaled);
    const sp::nn::MatrixT<double> in = to_t<double>(nscaled);
    const double ns = rung("nn.dense.f64.narrow",
                           [&] { dense64.forward(in); }) /
                      static_cast<double>(narrow);
    if (narrow == 128) add("nn.dense.f64.narrow.ns_per_col", ns, "ns");
    if (narrow == 64) add("nn.dense.f64.narrow64.ns_per_col", ns, "ns");
    if (narrow == 32) add("nn.dense.f64.narrow32.ns_per_col", ns, "ns");
  }
  add("nn.dense.macs_per_col", macs, "count");
  add("nn.dense.bytes_per_col", dense64.bytes_per_col(), "B");
  add("nn.dense.f64.gmac_per_s", macs / dense64_ns, "GMAC/s");
  add("nn.dense.f32.gmac_per_s", macs / dense32_ns, "GMAC/s");

  sp::nn::ForwardWorkspace fws;
  const double mlp64_ns =
      rung("nn.mlp.f64", [&] { (void)branch2.infer_columns(scaled, fws); }) /
      wd;
  const sp::nn::MlpSnapshotT<float> snap_mlp32 =
      sp::nn::MlpSnapshotT<float>::from(branch2);
  sp::nn::ForwardWorkspaceT<float> fws32;
  const double mlp32_ns =
      rung("nn.mlp.f32",
           [&] { (void)snap_mlp32.infer_columns(scaled_f32, fws32); }) /
      wd;
  add("nn.mlp.f64.ns_per_col", mlp64_ns, "ns");
  add("nn.mlp.f32.ns_per_col", mlp32_ns, "ns");
  add("nn.act.f64.self.ns_per_col", mlp64_ns - dense64_ns, "ns");
  {
    constexpr std::size_t kRows = 16;
    sp::util::Rng rrng = stream_rng(shape.seed, kRows);
    sp::nn::Matrix cols;
    net.scaler2().transform_columns_into(branch2_panel(kRows, rrng), cols);
    const sp::nn::Matrix rows = sp::nn::transpose(cols);
    sp::nn::ForwardWorkspace rws;
    add("nn.mlp.rowmajor.ns_per_row",
        rung("nn.mlp.rowmajor", [&] { (void)branch2.infer(rows, rws); }) /
            static_cast<double>(kRows),
        "ns");
  }

  // --- core: scaler, cascade branches, Eq. 1, snapshot, model_io ---
  sp::nn::Matrix scale_out;
  add("core.scale.ns_per_col",
      rung("core.scale",
           [&] { net.scaler2().transform_columns_into(raw, scale_out); }) /
          wd,
      "ns");
  sp::core::InferenceWorkspace iws;
  const double b2_64 =
      rung("core.branch2.f64",
           [&] { (void)net.predict_batch_columns(raw, iws); }) /
      wd;
  const sp::core::TwoBranchSnapshotT<float> snap32(net);
  sp::core::InferenceWorkspaceT<float> iws32;
  const double b2_32 =
      rung("core.branch2.f32",
           [&] { (void)snap32.predict_columns(raw_f32, iws32); }) /
      wd;
  add("core.branch2.f64.ns_per_col", b2_64, "ns");
  add("core.branch2.f32.ns_per_col", b2_32, "ns");
  add("core.cascade.self.ns_per_col", b2_64 - mlp64_ns, "ns");
  add("core.branch1.f32.ns_per_col",
      rung("core.branch1.f32",
           [&] { (void)snap32.estimate_columns(sensors_cols_f32, iws32); }) /
          rd,
      "ns");
  add("core.branch1.f64.ns_per_col",
      rung("core.branch1.f64",
           [&] { (void)net.estimate_batch(sensors, iws); }) /
          rd,
      "ns");
  {
    std::vector<double> soc(w);
    std::vector<sp::core::CellParams> params(w);
    for (std::size_t j = 0; j < w; ++j) {
      soc[j] = raw(0, j);
      params[j] = {rng.uniform(2.5, 3.2), rng.uniform(0.95, 1.0)};
    }
    add("core.physics.ns_per_cell",
        rung("core.physics",
             [&] {
               for (std::size_t j = 0; j < w; ++j) {
                 soc[j] = sp::core::eq1_predict_clamped(soc[j], raw(1, j),
                                                        raw(3, j), params[j]);
               }
             }) /
            wd,
        "ns");
  }
  add("core.snapshot.build_ms",
      rung("core.snapshot.build",
           [&] { (void)sp::core::TwoBranchSnapshot(net, shape.precision); }) *
          1e-6,
      "ms");
  std::string blob;
  add("core.model_io.save_ms", rung("core.model_io.save", [&] {
        std::ostringstream os;
        sp::core::save_model(os, net);
        blob = os.str();
      }) * 1e-6,
      "ms");
  add("core.model_io.load_ms", rung("core.model_io.load", [&] {
        std::istringstream is(blob);
        (void)sp::core::load_model(is);
      }) * 1e-6,
      "ms");

  // --- serve.pool ---
  {
    sp::serve::ThreadPool pool(shape.threads);
    add("serve.pool.dispatch_us", rung("serve.pool.dispatch", [&] {
          pool.parallel_for(shape.threads,
                            [](std::size_t, std::size_t, std::size_t) {});
        }) * 1e-3,
        "us");
  }

  // --- serve.mailbox ---
  {
    sp::serve::Mailbox mailbox(cells);
    const std::vector<std::size_t> order = rng.permutation(cells);
    const double n = static_cast<double>(cells);
    add("serve.mailbox.publish_ns.sensors",
        rung("serve.mailbox.publish_sensors",
             [&] {
               for (const std::size_t c : order) {
                 mailbox.publish_sensors(c, {3.7, -1.0, 25.0});
               }
             }) /
            n,
        "ns");
    add("serve.mailbox.publish_ns.workload",
        rung("serve.mailbox.publish_workload",
             [&] {
               for (const std::size_t c : order) {
                 mailbox.publish_workload(c, {-1.0, 25.0, 120.0});
               }
             }) /
            n,
        "ns");
    add("serve.mailbox.publish_ns.params",
        rung("serve.mailbox.publish_params",
             [&] {
               for (const std::size_t c : order) {
                 mailbox.publish_params(c, {3.0, 1.0, 0.0});
               }
             }) /
            n,
        "ns");
    // The first (warm) call drains the publishes above; every timed call
    // scans empty slots of all three kinds, as an idle tick does.
    std::size_t drained = 0;
    add("serve.mailbox.consume_idle_ns_per_cell",
        rung("serve.mailbox.consume_idle",
             [&] {
               sp::serve::SensorReport s;
               sp::serve::WorkloadOverride o;
               sp::serve::ParamUpdate p;
               for (std::size_t c = 0; c < cells; ++c) {
                 drained += mailbox.consume_params(c, p) ? 1 : 0;
                 drained += mailbox.consume_workload(c, o) ? 1 : 0;
                 drained += mailbox.consume_sensors(c, s) ? 1 : 0;
               }
             }) /
            n,
        "ns");
  }

  // --- serve.fleet: the engine rungs ---
  const std::vector<sp::serve::CellMode> modes =
      cell_modes(cells, shape.physics_every, shape.seed);
  const sp::nn::Matrix rows = workload_rows(cells, shape.seed);
  const sp::nn::Matrix fleet_sensors = sensor_rows(cells, shape.seed);
  double tick_1t_call_ns = 0.0;
  double tick_call_ns = 0.0;
  {
    sp::serve::FleetConfig config;
    config.threads = shape.threads;
    config.precision = shape.precision;
    sp::serve::FleetEngine engine(net, cells, config);
    engine.set_cell_modes(modes);
    engine.init_from_sensors(fleet_sensors);
    tick_call_ns = rung("serve.fleet.tick", [&] { engine.step(rows); });
    add("serve.fleet.tick.ns_per_cell",
        tick_call_ns / static_cast<double>(cells), "ns");
    constexpr int kAllocTicks = 20;
    const std::size_t a0 = alloc_count();
    for (int i = 0; i < kAllocTicks; ++i) engine.step(rows);
    add("serve.fleet.allocs_per_tick",
        static_cast<double>(alloc_count() - a0) / kAllocTicks, "count");
    bool b = false;
    add("serve.fleet.swap_ms", rung("serve.fleet.swap", [&] {
          b = !b;
          engine.swap_model(b ? net_b : net);
        }) * 1e-6,
        "ms");
  }
  {
    sp::serve::FleetConfig config;
    config.threads = 1;
    config.precision = shape.precision;
    const std::vector<sp::serve::CellMode> modes_1t(modes.begin(),
                                                    modes.begin() + w);
    sp::nn::Matrix rows_1t(w, 3);
    for (std::size_t c = 0; c < w; ++c) {
      for (std::size_t f = 0; f < 3; ++f) rows_1t(c, f) = rows(c, f);
    }
    sp::serve::FleetEngine engine(net, w, config);
    engine.set_cell_modes(modes_1t);
    engine.set_soc(std::vector<double>(w, 0.8));
    tick_1t_call_ns = rung("serve.fleet.tick_1t", [&] { engine.step(rows_1t); });
    add("serve.fleet.tick_1t.ns_per_cell", tick_1t_call_ns / wd, "ns");
    add("serve.fleet.self.ns_per_cell",
        tick_1t_call_ns / wd - (f32 ? b2_32 : b2_64), "ns");
    add("serve.fleet.parallel_overhead_us",
        (tick_call_ns - tick_1t_call_ns) * 1e-3, "us");
    std::vector<std::size_t> reseed_cells(r);
    for (std::size_t j = 0; j < r; ++j) reseed_cells[j] = j * (w / r);
    add("serve.fleet.reseed.ns_per_cell",
        rung("serve.fleet.reseed",
             [&] { engine.reseed_from_sensors(reseed_cells, sensors); }) /
            rd,
        "ns");
  }
  {
    // Cascade cells over forward columns computed: physics cells ride the
    // forward and are discarded, and f32 pads thin shards to the tile.
    double useful = 0.0;
    double computed = 0.0;
    for (std::size_t s = 0; s < shape.threads; ++s) {
      const sp::serve::ShardRange sr =
          sp::serve::shard_range(cells, s, shape.threads);
      const std::size_t count = sr.end - sr.begin;
      computed += static_cast<double>(
          f32 ? std::max(count, sp::nn::kColumnsMinBatch) : count);
      for (std::size_t c = sr.begin; c < sr.end; ++c) {
        if (modes[c] == sp::serve::CellMode::kCascade) useful += 1.0;
      }
    }
    add("serve.fleet.forward_useful_share", useful / computed, "ratio");
  }

  // --- serve.rollout: the rollout_planning lanes at this seed ---
  {
    constexpr std::size_t kLanes = 256;
    constexpr std::size_t kShards = 2;
    const RolloutRung rr(kLanes, kShards, shape.seed);
    sp::serve::RolloutConfig config;
    config.threads = kShards;
    sp::serve::RolloutEngine engine(net, config);
    std::vector<sp::core::Rollout> traj(kLanes);
    const double run_ns =
        rung("serve.rollout.run", [&] { engine.run_into(rr.lanes, traj); });
    add("serve.rollout.ns_per_lane_step", run_ns / rr.lane_steps, "ns");
    double active = 0.0;
    double rowmajor = 0.0;
    rr.shares(kShards, active, rowmajor);
    add("serve.rollout.active_share", active, "ratio");
    add("serve.rollout.rowmajor_step_share", rowmajor, "ratio");
    add("serve.rollout.reanchors_per_run", rr.reanchors, "count");
    constexpr int kAllocRuns = 5;
    const std::size_t a0 = alloc_count();
    for (int i = 0; i < kAllocRuns; ++i) engine.run_into(rr.lanes, traj);
    add("serve.rollout.allocs_per_run",
        static_cast<double>(alloc_count() - a0) / kAllocRuns, "count");
  }

  // --- serve.shard: the same fleet over worker processes ---
  {
    sp::serve::ShardedFleetConfig config;
    config.workers = shape.threads;
    config.threads_per_worker = 1;
    config.precision = shape.precision;
    config.alloc_counter = &alloc_count;
    sp::serve::ShardedFleet fleet(net, cells, config);
    fleet.set_cell_modes(modes);
    fleet.init_from_sensors(fleet_sensors);
    const double rt_ns = rung("serve.shard.cmd_roundtrip",
                              [&] { fleet.run(-1.0, 25.0, 60.0, 0); });
    const double step_ns = rung("serve.shard.tick", [&] { fleet.step(rows); });
    add("serve.shard.cmd_roundtrip_us", rt_ns * 1e-3, "us");
    add("serve.shard.tick.ns_per_cell", step_ns / static_cast<double>(cells),
        "ns");
    add("serve.shard.transport_us", (step_ns - rt_ns - tick_1t_call_ns) * 1e-3,
        "us");
    const std::vector<std::size_t> order = rng.permutation(cells);
    add("serve.shard.publish_ns",
        rung("serve.shard.publish",
             [&] {
               for (const std::size_t c : order) {
                 fleet.publish_sensors(c, {3.7, -1.0, 25.0});
               }
             }) /
            static_cast<double>(cells),
        "ns");
    fleet.step(rows);  // drains the publishes at full width
    fleet.step(rows);
    std::uint64_t worst = 0;
    for (std::size_t i = 0; i < fleet.num_workers(); ++i) {
      worst = std::max(worst, fleet.worker_allocs_last_command(i));
    }
    add("serve.shard.worker_allocs_per_tick", static_cast<double>(worst),
        "count");
  }
  return out;
}

}  // namespace perfbench
