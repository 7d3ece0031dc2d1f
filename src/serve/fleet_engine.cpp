#include "serve/fleet_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "nn/panel_dispatch.hpp"
#include "util/annotations.hpp"
#include "util/math.hpp"

namespace socpinn::serve {

namespace {

/// Synchronous side of the serve::is_finite policy: sensor matrices passed
/// to init_from_sensors / reseed_from_sensors are rejected whole, before
/// any state changes, with an error naming the offending row.
void require_finite_sensor_rows(const nn::Matrix& sensors_raw,
                                const char* who) {
  for (std::size_t r = 0; r < sensors_raw.rows(); ++r) {
    if (!is_finite(SensorReport{sensors_raw(r, 0), sensors_raw(r, 1),
                                sensors_raw(r, 2)})) {
      throw std::invalid_argument(std::string(who) +
                                  ": non-finite sensor row " +
                                  std::to_string(r));
    }
  }
}

}  // namespace

FleetConfig FleetEngine::validated(const core::TwoBranchNet& net,
                                   std::size_t num_cells, FleetConfig config) {
  // Runs before the thread pool spawns workers and before any per-cell
  // state allocates: a bad argument must not cost thread creation.
  if (num_cells == 0) {
    throw std::invalid_argument("FleetEngine: empty fleet");
  }
  if (config.precision == core::Precision::kFloat32) {
    core::require_trained_for_f32(net, "FleetEngine: FleetConfig::precision");
  }
  core::validate(config.default_params,
                 "FleetEngine: FleetConfig::default_params");
  // Force the panel-kernel ISA resolution now: a bad SOCPINN_FORCE_ISA
  // value throws std::invalid_argument here, on the caller's thread,
  // instead of from the first tick's forward inside a pool worker.
  (void)nn::simd::active_isa();
  return config;
}

const char* FleetEngine::simd_isa() const {
  return nn::simd::isa_name(nn::simd::active_isa());
}

Mailbox FleetEngine::make_mailbox(const FleetConfig& config,
                                  std::size_t num_cells) {
  // External slots (the shm transport's mapped segment) are attached
  // as-is — never reset, so messages published before the engine existed
  // are drained by the first tick instead of being lost.
  return config.external_mailbox_slots != nullptr
             ? Mailbox(config.external_mailbox_slots, num_cells)
             : Mailbox(num_cells);
}

FleetEngine::FleetEngine(const core::TwoBranchNet& net, std::size_t num_cells,
                         FleetConfig config)
    : config_(validated(net, num_cells, config)),
      // Weights and scaler stats are converted exactly once, off the hot
      // path; every tick serves the immutable snapshot published here or
      // by a later swap_model().
      model_(std::make_shared<const core::TwoBranchSnapshot>(
          net, config.precision)),
      pool_(config.threads),
      scratch_(pool_.size()),
      soc_(num_cells, 0.0),
      mailbox_(make_mailbox(config, num_cells)),
      override_(num_cells),
      override_active_(num_cells, 0),
      params_(num_cells, config.default_params),
      cell_mode_(num_cells, 0) {}

void FleetEngine::swap_model(const core::TwoBranchNet& net) {
  swap_model(std::make_shared<const core::TwoBranchSnapshot>(
      net, config_.precision));
}

void FleetEngine::swap_model(
    std::shared_ptr<const core::TwoBranchSnapshot> snapshot) {
  if (snapshot == nullptr) {
    throw std::invalid_argument("FleetEngine::swap_model: null snapshot");
  }
  if (snapshot->precision() != config_.precision) {
    throw std::invalid_argument(
        "FleetEngine::swap_model: snapshot precision does not match "
        "FleetConfig::precision");
  }
  model_.store(std::move(snapshot));
}

template <typename T>
SOCPINN_HOT void FleetEngine::reanchor_batch(
    ShardScratch& scratch, const core::TwoBranchSnapshotT<T>& model) {
  const std::size_t count = scratch.pending.size();
  if (count == 0) return;
  const bool clamp = config_.clamp_soc;
  core::InferenceWorkspaceT<T>& ws =
      std::get<core::InferenceWorkspaceT<T>>(scratch.ws);
  // Padded up to the panel tile (zero columns, outputs discarded):
  // per-column results are independent, so padding changes nothing but
  // speed on thin batches.
  // SOCPINN_HOT_ALLOW(resize): shrinks into warm capacity after the
  // first full-shard drain (test_alloc_free.cpp probes it)
  ws.sensors.resize(3, std::max(count, nn::kColumnsMinBatch));
  for (std::size_t i = 0; i < count; ++i) {
    ws.sensors(0, i) = static_cast<T>(scratch.reports[i].voltage);
    ws.sensors(1, i) = static_cast<T>(scratch.reports[i].current);
    ws.sensors(2, i) = static_cast<T>(scratch.reports[i].temp_c);
  }
  nn::zero_pad_columns(ws.sensors, count);
  const nn::MatrixT<T>& est = model.estimate_columns(ws.sensors, ws);
  for (std::size_t i = 0; i < count; ++i) {
    const double raw = static_cast<double>(est(0, i));
    soc_[scratch.pending[i]] = clamp ? util::clamp01(raw) : raw;
  }
}

void FleetEngine::init_from_sensors(const nn::Matrix& sensors_raw) {
  if (sensors_raw.rows() != num_cells() || sensors_raw.cols() != 3) {
    throw std::invalid_argument(
        "FleetEngine::init_from_sensors: need num_cells x 3 sensors");
  }
  require_finite_sensor_rows(sensors_raw, "FleetEngine::init_from_sensors");
  const util::RoleGuard tick(tick_serial_);
  const std::shared_ptr<const core::TwoBranchSnapshot> model =
      model_.load();
  model->visit([&](const auto& forward) {
    pool_.parallel_for(
        num_cells(),
        [&](std::size_t shard, std::size_t begin, std::size_t end) {
          // Lambdas are analyzed as separate functions with an empty
          // lockset, so each pool job enters the shard-execution role
          // itself before touching the REQUIRES(shard_exec_) helpers.
          const util::RoleGuard shard_scope(shard_exec_);
          ShardScratch& scratch = scratch_[shard];
          scratch.pending.clear();
          scratch.reports.clear();
          for (std::size_t cell = begin; cell < end; ++cell) {
            scratch.pending.push_back(cell);
            scratch.reports.push_back({sensors_raw(cell, 0),
                                       sensors_raw(cell, 1),
                                       sensors_raw(cell, 2)});
          }
          reanchor_batch(scratch, forward);
        });
  });
}

void FleetEngine::reseed_from_sensors(std::span<const std::size_t> cells,
                                      const nn::Matrix& sensors_raw) {
  if (sensors_raw.rows() != cells.size() || sensors_raw.cols() != 3) {
    throw std::invalid_argument(
        "FleetEngine::reseed_from_sensors: need cells.size() x 3 sensors");
  }
  for (const std::size_t cell : cells) {
    if (cell >= num_cells()) {
      throw std::invalid_argument(
          "FleetEngine::reseed_from_sensors: cell index out of range");
    }
  }
  require_finite_sensor_rows(sensors_raw, "FleetEngine::reseed_from_sensors");
  if (cells.empty()) return;
  const util::RoleGuard tick(tick_serial_);
  const std::shared_ptr<const core::TwoBranchSnapshot> model =
      model_.load();
  // One batched estimate on the calling thread, through the same
  // reanchor_batch body a mailbox drain runs — which, with per-column
  // independence, is the whole bitwise drain-equivalence argument.
  ShardScratch& scratch = scratch_[0];
  scratch.pending.assign(cells.begin(), cells.end());
  scratch.reports.clear();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    scratch.reports.push_back(
        {sensors_raw(i, 0), sensors_raw(i, 1), sensors_raw(i, 2)});
  }
  model->visit([&](const auto& forward) {
    // The synchronous re-anchor runs the shard helper on the calling
    // thread, so it enters the shard-execution role here.
    const util::RoleGuard shard_scope(shard_exec_);
    reanchor_batch(scratch, forward);
  });
}

void FleetEngine::clear_workload_override(std::size_t cell) {
  if (cell >= num_cells()) {
    throw std::invalid_argument(
        "FleetEngine::clear_workload_override: cell index out of range");
  }
  const util::RoleGuard tick(tick_serial_);
  override_active_[cell] = 0;
}

void FleetEngine::clear_workload_overrides() {
  const util::RoleGuard tick(tick_serial_);
  std::fill(override_active_.begin(), override_active_.end(),
            std::uint8_t{0});
}

bool FleetEngine::has_workload_override(std::size_t cell) const {
  if (cell >= num_cells()) {
    throw std::invalid_argument(
        "FleetEngine::has_workload_override: cell index out of range");
  }
  return override_active_[cell] != 0;
}

void FleetEngine::set_cell_params(std::size_t cell,
                                  const core::CellParams& params) {
  if (cell >= num_cells()) {
    throw std::invalid_argument(
        "FleetEngine::set_cell_params: cell index out of range");
  }
  core::validate(params, "FleetEngine::set_cell_params");
  const util::RoleGuard tick(tick_serial_);
  // The same per-cell assignment a mailbox param drain performs — which is
  // the whole bitwise sync-equivalence argument for param updates.
  params_[cell] = params;
}

void FleetEngine::set_cell_params(std::span<const core::CellParams> params) {
  if (params.size() != num_cells()) {
    throw std::invalid_argument("FleetEngine::set_cell_params: size mismatch");
  }
  // Validate the whole batch before applying any entry (reject-whole, like
  // init_from_sensors).
  for (const core::CellParams& p : params) {
    core::validate(p, "FleetEngine::set_cell_params");
  }
  const util::RoleGuard tick(tick_serial_);
  std::copy(params.begin(), params.end(), params_.begin());
}

const core::CellParams& FleetEngine::cell_params(std::size_t cell) const {
  if (cell >= num_cells()) {
    throw std::invalid_argument(
        "FleetEngine::cell_params: cell index out of range");
  }
  return params_[cell];
}

void FleetEngine::set_cell_mode(std::size_t cell, CellMode mode) {
  if (cell >= num_cells()) {
    throw std::invalid_argument(
        "FleetEngine::set_cell_mode: cell index out of range");
  }
  const util::RoleGuard tick(tick_serial_);
  cell_mode_[cell] = static_cast<std::uint8_t>(mode);
}

void FleetEngine::set_cell_modes(std::span<const CellMode> modes) {
  if (modes.size() != num_cells()) {
    throw std::invalid_argument("FleetEngine::set_cell_modes: size mismatch");
  }
  const util::RoleGuard tick(tick_serial_);
  for (std::size_t i = 0; i < modes.size(); ++i) {
    cell_mode_[i] = static_cast<std::uint8_t>(modes[i]);
  }
}

CellMode FleetEngine::cell_mode(std::size_t cell) const {
  if (cell >= num_cells()) {
    throw std::invalid_argument(
        "FleetEngine::cell_mode: cell index out of range");
  }
  return static_cast<CellMode>(cell_mode_[cell]);
}

void FleetEngine::set_soc(std::span<const double> soc) {
  if (soc.size() != num_cells()) {
    throw std::invalid_argument("FleetEngine::set_soc: size mismatch");
  }
  const util::RoleGuard tick(tick_serial_);
  // Direct seeding honors the same clamping knob as every other
  // seeding/serving path (init_from_sensors, step, tick).
  for (std::size_t i = 0; i < soc.size(); ++i) {
    soc_[i] = config_.clamp_soc ? util::clamp01(soc[i]) : soc[i];
  }
}

SOCPINN_HOT void FleetEngine::drain_shard(ShardScratch& scratch,
                                          std::size_t begin, std::size_t end) {
  // Param updates first: a capacity published by the slow SoH loop takes
  // effect from this very tick's physics advance on. Skip-and-count
  // validity here is is_finite AND core::is_valid — a FINITE capacity of
  // 0 would poison the Eq. 1 divisor just like a NaN, so the drain holds
  // the same bar the synchronous set_cell_params enforces by throwing.
  ParamUpdate update;
  for (std::size_t cell = begin; cell < end; ++cell) {
    if (mailbox_.consume_params(cell, update)) {
      const core::CellParams p{update.capacity_ah, update.coulombic_eff};
      if (!is_finite(update) || !core::is_valid(p)) {
        dropped_param_updates_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      params_[cell] = p;
    }
  }
  // Workload overrides next: they replace the staged Branch-2 row of this
  // very tick (sticky until a newer override supersedes them).
  WorkloadOverride forecast;
  for (std::size_t cell = begin; cell < end; ++cell) {
    if (mailbox_.consume_workload(cell, forecast)) {
      // Skip-and-count (serve::is_finite policy): a NaN/Inf forecast would
      // stick in the override table and poison every tick until superseded.
      if (!is_finite(forecast)) {
        dropped_workload_overrides_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      override_[cell] = forecast;
      override_active_[cell] = 1;
    }
  }
  // Sensor reports: gather the pending cells for the caller's batched
  // Branch-1 re-seed of exactly those cells — the streaming re-anchor,
  // whose SoC feeds this same tick's Branch-2 input. Non-finite reports are
  // skipped and counted (the drain cannot throw mid-tick); the cell keeps
  // its current SoC until the next valid report.
  scratch.pending.clear();
  scratch.reports.clear();
  SensorReport report;
  for (std::size_t cell = begin; cell < end; ++cell) {
    if (mailbox_.consume_sensors(cell, report)) {
      if (!is_finite(report)) {
        dropped_sensor_reports_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      // Both vectors were grown to full shard size by the warm-up tick.
      // SOCPINN_HOT_ALLOW(push_back): warm capacity, bounded by end - begin
      scratch.pending.push_back(cell);
      // SOCPINN_HOT_ALLOW(push_back): warm capacity, bounded by end - begin
      scratch.reports.push_back(report);
    }
  }
}

template <typename T>
SOCPINN_HOT void FleetEngine::apply_overrides(nn::MatrixT<T>& input,
                                              std::size_t begin,
                                              std::size_t count) {
  // Runs after any staging, before every forward: overrides must survive
  // both per-tick restaging (step) and the persisted run() fast path.
  for (std::size_t i = 0; i < count; ++i) {
    if (override_active_[begin + i] == 0) continue;
    const WorkloadOverride& o = override_[begin + i];
    input(1, i) = static_cast<T>(o.avg_current);
    input(2, i) = static_cast<T>(o.avg_temp_c);
    input(3, i) = static_cast<T>(o.horizon_s);
  }
}

template <typename T>
SOCPINN_HOT void FleetEngine::forward_shard(
    core::InferenceWorkspaceT<T>& ws,
    const core::TwoBranchSnapshotT<T>& model, std::size_t begin,
    std::size_t count) {
  // Physics-only cells ride the batched forward (their columns are
  // computed and discarded — per-column independence makes the padding
  // free) but keep their prior SoC here: advance_physics reads it right
  // after this, and Eq. 1 must see the true f64 state, not an NN output.
  const nn::MatrixT<T>& pred = model.predict_columns(ws.branch2_input, ws);
  for (std::size_t i = 0; i < count; ++i) {
    if (cell_mode_[begin + i] != 0) continue;
    const double raw = static_cast<double>(pred(0, i));
    soc_[begin + i] = config_.clamp_soc ? util::clamp01(raw) : raw;
  }
}

SOCPINN_HOT void FleetEngine::advance_physics(std::size_t begin,
                                              std::size_t end,
                                              const nn::Matrix* workload_raw,
                                              const double* row3) {
  const bool clamp = config_.clamp_soc;
  for (std::size_t cell = begin; cell < end; ++cell) {
    if (cell_mode_[cell] == 0) continue;
    double avg_current, horizon_s;
    if (override_active_[cell] != 0) {
      avg_current = override_[cell].avg_current;
      horizon_s = override_[cell].horizon_s;
    } else if (workload_raw != nullptr) {
      avg_current = (*workload_raw)(cell, 0);
      horizon_s = (*workload_raw)(cell, 2);
    } else {
      avg_current = row3[0];
      horizon_s = row3[2];
    }
    // params_[cell] is valid by construction: every write path (config
    // seed, set_cell_params, the drain) validates before assigning, so
    // the non-throwing hot Eq. 1 is safe here.
    const double raw =
        core::eq1_predict(soc_[cell], avg_current, horizon_s, params_[cell]);
    soc_[cell] = clamp ? util::clamp01(raw) : raw;
  }
}

template <typename T>
SOCPINN_HOT void FleetEngine::tick_shard(
    ShardScratch& scratch, const core::TwoBranchSnapshotT<T>& model,
    std::size_t begin, std::size_t end, const nn::Matrix* workload_raw,
    const double* row3) {
  const std::size_t count = end - begin;
  // Drain before staging: a drained sensor report must seed this tick's
  // Branch-2 SoC input, and a drained override must replace this tick's
  // workload row.
  drain_shard(scratch, begin, end);
  reanchor_batch(scratch, model);
  core::InferenceWorkspaceT<T>& ws =
      std::get<core::InferenceWorkspaceT<T>>(scratch.ws);
  nn::MatrixT<T>& input = ws.branch2_input;
  if (workload_raw != nullptr || row3 != nullptr) {
    // Feature-major at every shard size (batch as the unit-stride axis),
    // padded up to the panel tile on thin shards. Pad columns are staged
    // to zero here (SoC row included) and never rewritten by the per-tick
    // SoC refresh below.
    // SOCPINN_HOT_ALLOW(resize): warm capacity, shard shape fixed per engine
    input.resize(4, std::max(count, nn::kColumnsMinBatch));
    for (std::size_t i = 0; i < count; ++i) {
      const double* row = workload_raw != nullptr
                              ? workload_raw->data().data() + (begin + i) * 3
                              : row3;
      input(1, i) = static_cast<T>(row[0]);
      input(2, i) = static_cast<T>(row[1]);
      input(3, i) = static_cast<T>(row[2]);
    }
    nn::zero_pad_columns(input, count);
  }
  for (std::size_t i = 0; i < count; ++i) {
    input(0, i) = static_cast<T>(soc_[begin + i]);
  }
  apply_overrides(input, begin, count);
  forward_shard(ws, model, begin, count);
  advance_physics(begin, end, workload_raw, shared_row_);
}

SOCPINN_HOT void FleetEngine::tick_shards(const nn::Matrix* workload_raw,
                                          const double* row3) {
  if (row3 != nullptr) {
    // Persist the shared row in f64: the run() fast path reuses staged
    // rows on later ticks (row3 == nullptr), and advance_physics must
    // read the true doubles, not the f32 staged panel.
    shared_row_[0] = row3[0];
    shared_row_[1] = row3[1];
    shared_row_[2] = row3[2];
  }
  // One acquire per tick: every shard of this tick serves the same
  // snapshot, and a concurrent swap_model lands on the next tick whole.
  const std::shared_ptr<const core::TwoBranchSnapshot> model =
      model_.load();
  model->visit([&](const auto& forward) {
    pool_.parallel_for(
        num_cells(),
        [&](std::size_t shard, std::size_t begin, std::size_t end) {
          const util::RoleGuard shard_scope(shard_exec_);
          tick_shard(scratch_[shard], forward, begin, end, workload_raw,
                     row3);
        });
  });
  ++ticks_;
}

SOCPINN_HOT void FleetEngine::step(const nn::Matrix& workload_raw) {
  if (workload_raw.rows() != num_cells() || workload_raw.cols() != 3) {
    throw std::invalid_argument(
        "FleetEngine::step: need num_cells x 3 workload");
  }
  const util::RoleGuard tick(tick_serial_);
  tick_shards(&workload_raw, nullptr);
}

void FleetEngine::run(double avg_current, double avg_temp_c, double horizon_s,
                      std::size_t ticks) {
  if (ticks == 0) return;
  const util::RoleGuard tick(tick_serial_);
  const double row[3] = {avg_current, avg_temp_c, horizon_s};
  tick_shards(nullptr, row);  // stages the shared row once per shard
  for (std::size_t t = 1; t < ticks; ++t) tick_shards(nullptr, nullptr);
}

void FleetEngine::run(const data::WorkloadSchedule& schedule) {
  const util::RoleGuard tick(tick_serial_);
  for (std::size_t w = 0; w < schedule.num_steps(); ++w) {
    const double row[3] = {schedule.workload(w, 0), schedule.workload(w, 1),
                           schedule.workload(w, 2)};
    tick_shards(nullptr, row);
  }
}

}  // namespace socpinn::serve
