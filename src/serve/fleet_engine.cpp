#include "serve/fleet_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/annotations.hpp"

namespace socpinn::serve {

namespace {

std::array<double, 3> sensor_row(const nn::Matrix& sensors, std::size_t r) {
  return {sensors(r, 0), sensors(r, 1), sensors(r, 2)};
}

}  // namespace

FleetConfig FleetEngine::validated(std::size_t num_cells, FleetConfig config) {
  if (num_cells == 0) {
    throw std::invalid_argument("FleetEngine: empty fleet");
  }
  core::validate(config.default_params,
                 "FleetEngine: FleetConfig::default_params");
  return config;
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
    : EngineCore(net, validated(num_cells, config).threads, config.precision,
                 config.clamp_soc, "FleetEngine", "FleetConfig::precision"),
      scratch_(num_threads()),
      soc_(num_cells, 0.0),
      mailbox_(make_mailbox(config, num_cells)),
      override_(num_cells),
      override_active_(num_cells, 0),
      params_(num_cells, config.default_params),
      cell_mode_(num_cells, 0) {
  // Reserve, not resize: the first busy tick then allocates nothing, and
  // pages no drain ever fills stay out of the resident set.
  for (std::size_t s = 0; s < scratch_.size(); ++s) {
    const ShardRange shard = shard_range(num_cells, s, scratch_.size());
    scratch_[s].pending.reserve(shard.end - shard.begin);
    scratch_[s].reports.reserve(shard.end - shard.begin);
  }
}

void FleetEngine::init_from_sensors(const nn::Matrix& sensors_raw) {
  if (sensors_raw.rows() != num_cells() || sensors_raw.cols() != 3) {
    throw std::invalid_argument(
        "FleetEngine::init_from_sensors: need num_cells x 3 sensors");
  }
  require_finite_rows(sensors_raw.data().data(), sensors_raw.rows(),
                      "FleetEngine::init_from_sensors", "sensor row");
  const util::RoleGuard tick(tick_serial_);
  for_each_shard(num_cells(), [&](const auto& model, auto& ws, std::size_t,
                                  std::size_t begin, std::size_t end) {
    // Lambdas are analyzed as separate functions with an empty lockset,
    // so every shard body enters the shard-execution role itself.
    const util::RoleGuard shard_scope(shard_exec_);
    forward(
        model.branch1(), ws, end - begin,
        [&](std::size_t i) { return sensor_row(sensors_raw, begin + i); },
        [&](std::size_t i, double soc) { soc_[begin + i] = soc; });
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
  require_finite_rows(sensors_raw.data().data(), sensors_raw.rows(),
                      "FleetEngine::reseed_from_sensors", "sensor row");
  const util::RoleGuard tick(tick_serial_);
  // One batched Branch-1 forward on the calling thread, through the same
  // forward a mailbox drain runs — which, with per-column independence, is
  // the whole bitwise drain-equivalence argument.
  on_calling_thread([&](const auto& model, auto& ws) {
    const util::RoleGuard shard_scope(shard_exec_);
    forward(
        model.branch1(), ws, cells.size(),
        [&](std::size_t i) { return sensor_row(sensors_raw, i); },
        [&](std::size_t i, double soc) { soc_[cells[i]] = soc; });
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
  require_finite_rows(soc.data(), soc.size(), "FleetEngine::set_soc",
                      "SoC for cell", 1);
  const util::RoleGuard tick(tick_serial_);
  // Direct seeding honors the same clamping knob as every other
  // seeding/serving path (init_from_sensors, step, tick).
  for (std::size_t i = 0; i < soc.size(); ++i) soc_[i] = clamp_soc(soc[i]);
}

SOCPINN_HOT void FleetEngine::drain_shard(ShardScratch& scratch,
                                          std::size_t begin, std::size_t end) {
  scratch.pending.clear();
  scratch.reports.clear();
  ParamUpdate update;
  WorkloadOverride forecast;
  SensorReport report;
  for (std::size_t cell = begin; cell < end; ++cell) {
    // Param updates first: a capacity published by the slow SoH loop takes
    // effect from this very tick's Eq. 1 advance on. Skip-and-count
    // validity here is is_finite AND core::is_valid — a FINITE capacity of
    // 0 would poison the Eq. 1 divisor just like a NaN, so the drain holds
    // the same bar the synchronous set_cell_params enforces by throwing.
    if (mailbox_.consume_params(cell, update)) {
      const core::CellParams p{update.capacity_ah, update.coulombic_eff};
      if (is_finite(update) && core::is_valid(p)) {
        params_[cell] = p;
      } else {
        dropped_param_updates_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // Workload overrides next: they replace the staged Branch-2 row of this
    // very tick (sticky until a newer override supersedes them). A NaN/Inf
    // forecast would stick in the override table and poison every tick
    // until superseded, so it is skipped and counted instead.
    if (mailbox_.consume_workload(cell, forecast)) {
      if (is_finite(forecast)) {
        override_[cell] = forecast;
        override_active_[cell] = 1;
      } else {
        dropped_workload_overrides_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // Sensor reports: gather the pending cells for the caller's batched
    // Branch-1 re-seed of exactly those cells — the streaming re-anchor,
    // whose SoC feeds this same tick's Branch-2 input. Non-finite reports
    // are skipped and counted (the drain cannot throw mid-tick); the cell
    // keeps its current SoC until the next valid report.
    if (mailbox_.consume_sensors(cell, report)) {
      if (is_finite(report)) {
        // SOCPINN_HOT_ALLOW(push_back): reserved to the shard's width at
        // construction, bounded by end - begin
        scratch.pending.push_back(cell);
        // SOCPINN_HOT_ALLOW(push_back): reserved to the shard's width at
        // construction, bounded by end - begin
        scratch.reports.push_back({report.voltage, report.current,
                                   report.temp_c});
      } else {
        dropped_sensor_reports_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

WorkloadOverride FleetEngine::workload_of(std::size_t cell,
                                          WorkloadRows rows) const {
  if (override_active_[cell] != 0) return override_[cell];
  const double* row = rows.data + cell * rows.stride;
  return {row[0], row[1], row[2]};
}

SOCPINN_HOT void FleetEngine::tick_shards(WorkloadRows rows) {
  for_each_shard(num_cells(), [&](const auto& model, auto& ws,
                                  std::size_t shard, std::size_t begin,
                                  std::size_t end) {
    const util::RoleGuard shard_scope(shard_exec_);
    ShardScratch& scratch = scratch_[shard];
    // Drain before staging: a drained sensor report must seed this tick's
    // Branch-2 SoC input, and a drained override must replace this tick's
    // workload row.
    drain_shard(scratch, begin, end);
    forward(
        model.branch1(), ws, scratch.pending.size(),
        [&](std::size_t i) { return scratch.reports[i]; },
        [&](std::size_t i, double soc) { soc_[scratch.pending[i]] = soc; });
    // Physics-only cells ride the panel (their columns are computed and
    // discarded) and advance in the write-back instead, with Eq. 1 from
    // their own params in f64: the cell's SoC is still the value its
    // column staged, so Eq. 1 sees the true state, not an NN output.
    forward(
        model.branch2(), ws, end - begin,
        [&](std::size_t i) {
          const WorkloadOverride w = workload_of(begin + i, rows);
          return std::array{soc_[begin + i], w.avg_current, w.avg_temp_c,
                            w.horizon_s};
        },
        [&](std::size_t i, double soc) {
          const std::size_t cell = begin + i;
          if (cell_mode_[cell] == 0) {
            soc_[cell] = soc;
            return;
          }
          // params_[cell] is valid by construction: every write path
          // (config seed, set_cell_params, the drain) validates before
          // assigning, so the non-throwing hot Eq. 1 is safe here.
          const WorkloadOverride w = workload_of(cell, rows);
          soc_[cell] = clamp_soc(core::eq1_predict(
              soc_[cell], w.avg_current, w.horizon_s, params_[cell]));
        });
  });
  ++ticks_;
}

SOCPINN_HOT void FleetEngine::step(const nn::Matrix& workload_raw) {
  if (workload_raw.rows() != num_cells() || workload_raw.cols() != 3) {
    throw std::invalid_argument(
        "FleetEngine::step: need num_cells x 3 workload");
  }
  const double* rows = workload_raw.data().data();
  require_finite_rows(rows, num_cells(), "FleetEngine::step", "workload row");
  const util::RoleGuard tick(tick_serial_);
  tick_shards({rows, 3});
}

void FleetEngine::run(double avg_current, double avg_temp_c, double horizon_s,
                      std::size_t ticks) {
  const double row[3] = {avg_current, avg_temp_c, horizon_s};
  require_finite_rows(row, 1, "FleetEngine::run", "workload row");
  const util::RoleGuard tick(tick_serial_);
  for (std::size_t t = 0; t < ticks; ++t) tick_shards({row, 0});
}

void FleetEngine::run(const data::WorkloadSchedule& schedule) {
  if (schedule.num_steps() != 0 && schedule.workload.cols() != 3) {
    throw std::invalid_argument(
        "FleetEngine::run: need num_steps x 3 schedule workload");
  }
  const double* rows = schedule.workload.data().data();
  require_finite_rows(rows, schedule.num_steps(), "FleetEngine::run",
                      "workload row");
  const util::RoleGuard tick(tick_serial_);
  for (std::size_t w = 0; w < schedule.num_steps(); ++w) {
    tick_shards({rows + w * 3, 0});
  }
}

}  // namespace socpinn::serve
