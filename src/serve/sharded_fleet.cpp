#include "serve/sharded_fleet.hpp"

// NOLINT(modernize-deprecated-headers) — <csignal> is not guaranteed to
// declare POSIX ::kill; keep the POSIX header.
#include <signal.h>  // NOLINT(modernize-deprecated-headers)
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/model_io.hpp"
#include "serve/engine_core.hpp"
#include "serve/shard_worker.hpp"
#include "serve/shm_layout.hpp"

namespace socpinn::serve {

namespace {

/// Whether worker `pid` has exited. A worker reaped elsewhere (SIGCHLD
/// ignored, or another thread's waitpid(-1)) leaves waitpid failing with
/// ECHILD on every call, so that counts as exited too.
bool worker_exited(pid_t pid) {
  const pid_t r = ::waitpid(pid, nullptr, WNOHANG);
  return r == pid || (r < 0 && errno == ECHILD);
}

/// The transport ships the model as core::save_model text, which needs a
/// trained net (fitted scalers) regardless of precision — checked here so
/// the error names the actual requirement instead of save_model's generic
/// one. The net is then snapshotted once at the fleet's precision, so a
/// net no engine could serve (core::TwoBranchSnapshotT's checks) throws
/// here, in the parent, and no worker ever adopts it.
std::string serialize_model(const core::TwoBranchNet& net,
                            core::Precision precision, const char* who) {
  if (!net.scaler1().fitted() || !net.scaler2().fitted()) {
    throw std::invalid_argument(
        std::string(who) +
        ": the multi-process transport serializes the model, which requires "
        "a trained net (fitted scalers)");
  }
  (void)core::TwoBranchSnapshot(net, precision);
  std::ostringstream out;
  core::save_model(out, net);
  return out.str();
}

std::string checked_blob(const core::TwoBranchNet& net, std::size_t num_cells,
                         core::Precision precision) {
  if (num_cells == 0) {
    throw std::invalid_argument("ShardedFleet: empty fleet");
  }
  return serialize_model(net, precision, "ShardedFleet");
}

ModelRegion make_model_region(const std::string& blob) {
  // Headroom over the construction-time size: the architecture is fixed,
  // so later hot-swapped models serialize to near-identical sizes; the
  // slack absorbs digit-count jitter of the text format.
  ModelRegion region(blob.size() + blob.size() / 2 + 4096);
  // SOCPINN_SEQLOCK_WRITER(ShardedFleet construction): the region is not
  // yet shared — workers fork after this returns, so this initial publish
  // has exactly one process attached.
  region.publish(blob);
  return region;
}

}  // namespace

ShardedFleet::ShardedFleet(const core::TwoBranchNet& net,
                           std::size_t num_cells, ShardedFleetConfig config)
    : precision_(config.precision),
      model_region_(
          make_model_region(checked_blob(net, num_cells, config.precision))),
      shards_(partition_fleet(num_cells, config.workers)),
      layout_{num_cells, shards_.size()},
      segment_(layout_.total_size()),
      mailbox_(segment_.at<MailboxSlot>(layout_.mailbox_offset()),
               num_cells),
      soc_(segment_.at<double>(layout_.soc_offset())),
      input_(segment_.at<double>(layout_.input_offset())) {
  // Fork only after the segment and the published model exist: children
  // inherit complete mappings and need nothing from the parent afterwards
  // except commands. This parent owns no threads, so fork-without-exec is
  // safe here; callers that do run threads get children whose only live
  // code path is shard_worker_main over the inherited mappings.
  const FleetConfig engine_config{.threads = config.threads_per_worker,
                                  .clamp_soc = config.clamp_soc,
                                  .precision = config.precision,
                                  .default_params = config.default_params};
  MailboxSlot* slots = segment_.at<MailboxSlot>(layout_.mailbox_offset());
  workers_.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    auto* header =
        segment_.at<WorkerHeader>(layout_.header_offset(shard.index));
    // Stamp the ABI fingerprint before the worker can attach:
    // shard_worker_main refuses a header whose hash does not match its own
    // binary's layout (see serve/shm_layout.hpp).
    header->layout_hash = shm_layout_hash();
    const ShardWorkerContext ctx{.header = header,
                                 .mailbox_slots = slots + shard.begin,
                                 .soc = soc_ + shard.begin,
                                 .input = input_ + 3 * shard.begin,
                                 .num_cells = shard.size(),
                                 .model = &model_region_,
                                 .engine = engine_config,
                                 .alloc_counter = config.alloc_counter};
    // Flush inherited stdio buffers so the child's _exit cannot re-emit
    // the parent's pending output.
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid == 0) {
      shard_worker_main(ctx);  // noreturn
    }
    if (pid < 0) {
      const int err = errno;
      for (const Worker& started : workers_) {
        ::kill(started.pid, SIGKILL);
        ::waitpid(started.pid, nullptr, 0);
      }
      throw std::runtime_error(std::string("ShardedFleet: fork failed: ") +
                               std::strerror(err));
    }
    workers_.push_back(Worker{shard, header, pid});
  }
}

ShardedFleet::~ShardedFleet() {
  const util::RoleGuard cmd(cmd_serial_);
  for (Worker& w : workers_) {
    if (!w.reaped) post(w, WorkerCommand::kStop);
  }
  for (Worker& w : workers_) {
    // Workers _exit right after acking kStop; allow a generous beat for a
    // worker mid-tick to finish, then stop waiting politely.
    for (int beat = 0; beat < 20000 && !w.reaped; ++beat) {
      if (worker_exited(w.pid)) w.reaped = true;
      if (!w.reaped) nap();
    }
    if (!w.reaped) {
      ::kill(w.pid, SIGKILL);
      ::waitpid(w.pid, nullptr, 0);
      w.reaped = true;
    }
  }
}

void ShardedFleet::post(Worker& w, WorkerCommand cmd) {
  w.header->cmd = static_cast<std::uint32_t>(cmd);
  ++w.seq;
  std::atomic_ref<std::uint64_t>(w.header->cmd_seq)
      .store(w.seq, std::memory_order_release);
}

bool ShardedFleet::wait_ack(Worker& w) {
  const std::atomic_ref<std::uint64_t> ack(w.header->ack_seq);
  if (wait_until([&] { return ack.load(std::memory_order_acquire) == w.seq; },
                 [&] { return !worker_exited(w.pid); })) {
    return true;
  }
  w.reaped = true;
  return false;
}

void ShardedFleet::broadcast(WorkerCommand cmd) {
  for (Worker& w : workers_) post(w, cmd);
  // Every worker acks or dies before anything is raised, so no live
  // worker is still running this command when the caller regains control
  // (and restages input rows). The lowest-index failure wins, as in
  // ThreadPool::parallel_for.
  std::string failure;
  for (Worker& w : workers_) {
    const bool acked = wait_ack(w);
    if (!failure.empty()) continue;
    if (!acked) {
      failure = "worker " + std::to_string(w.shard.index) +
                " died before acknowledging a command";
    } else if (w.header->status != 0) {
      failure = "worker " + std::to_string(w.shard.index) + ": " +
                w.header->error_msg;
    }
  }
  if (!failure.empty()) {
    throw std::runtime_error("ShardedFleet: " + failure);
  }
}

void ShardedFleet::init_from_sensors(const nn::Matrix& sensors_raw) {
  if (sensors_raw.rows() != num_cells() || sensors_raw.cols() != 3) {
    throw std::invalid_argument(
        "ShardedFleet::init_from_sensors: need num_cells x 3 sensors");
  }
  // Reject the whole batch before ANY worker sees it — the same
  // synchronous side of the serve::is_finite policy FleetEngine applies.
  const double* rows = sensors_raw.data().data();
  require_finite_rows(rows, num_cells(), "ShardedFleet::init_from_sensors",
                      "sensor row for cell");
  const util::RoleGuard cmd(cmd_serial_);
  std::memcpy(input_, rows, num_cells() * 3 * sizeof(double));
  broadcast(WorkerCommand::kInitFromSensors);
}

void ShardedFleet::set_soc(std::span<const double> soc) {
  if (soc.size() != num_cells()) {
    throw std::invalid_argument("ShardedFleet::set_soc: size mismatch");
  }
  require_finite_rows(soc.data(), num_cells(), "ShardedFleet::set_soc",
                      "SoC for cell", 1);
  const util::RoleGuard cmd(cmd_serial_);
  std::memcpy(soc_, soc.data(), num_cells() * sizeof(double));
  broadcast(WorkerCommand::kSetSoc);
}

void ShardedFleet::step(const nn::Matrix& workload_raw) {
  if (workload_raw.rows() != num_cells() || workload_raw.cols() != 3) {
    throw std::invalid_argument(
        "ShardedFleet::step: need num_cells x 3 workload rows");
  }
  const double* rows = workload_raw.data().data();
  require_finite_rows(rows, num_cells(), "ShardedFleet::step",
                      "workload row for cell");
  const util::RoleGuard cmd(cmd_serial_);
  std::memcpy(input_, rows, num_cells() * 3 * sizeof(double));
  broadcast(WorkerCommand::kStep);
  ++ticks_;
}

void ShardedFleet::run(double avg_current, double avg_temp_c,
                       double horizon_s, std::size_t ticks) {
  const double row[3] = {avg_current, avg_temp_c, horizon_s};
  require_finite_rows(row, 1, "ShardedFleet::run", "workload row");
  const util::RoleGuard cmd(cmd_serial_);
  for (Worker& w : workers_) {
    w.header->param0 = avg_current;
    w.header->param1 = avg_temp_c;
    w.header->param2 = horizon_s;
    w.header->ticks = ticks;
  }
  broadcast(WorkerCommand::kRun);
  ticks_ += ticks;
}

void ShardedFleet::swap_model(const core::TwoBranchNet& net) {
  // One serialize for the whole fleet; workers adopt at their next
  // command. publish() is single-writer: concurrent swap_model calls must
  // be externally serialized (commands and publish_* need no such care).
  // SOCPINN_SEQLOCK_WRITER(ShardedFleet::swap_model): the parent is the
  // model region's single declared writer; workers only read (the line
  // above states the external-serialization contract).
  model_region_.publish(
      serialize_model(net, precision_, "ShardedFleet::swap_model"));
}

void ShardedFleet::publish_sensors(std::size_t cell,
                                   const SensorReport& report) {
  mailbox_.publish_sensors(cell, report);
}

void ShardedFleet::publish_workload(std::size_t cell,
                                    const WorkloadOverride& forecast) {
  mailbox_.publish_workload(cell, forecast);
}

void ShardedFleet::publish_params(std::size_t cell,
                                  const ParamUpdate& update) {
  mailbox_.publish_params(cell, update);
}

void ShardedFleet::set_cell_modes(std::span<const CellMode> modes) {
  if (modes.size() != num_cells()) {
    throw std::invalid_argument("ShardedFleet::set_cell_modes: size mismatch");
  }
  const util::RoleGuard cmd(cmd_serial_);
  for (std::size_t c = 0; c < num_cells(); ++c) {
    input_[3 * c] = modes[c] == CellMode::kCascade ? 0.0 : 1.0;
  }
  broadcast(WorkerCommand::kSetCellModes);
}

IngestStats ShardedFleet::ingest_stats() const {
  IngestStats total;
  for (const Worker& w : workers_) {
    total += IngestStats{
        std::atomic_ref<std::uint64_t>(w.header->dropped_sensor_reports)
            .load(std::memory_order_relaxed),
        std::atomic_ref<std::uint64_t>(w.header->dropped_workload_overrides)
            .load(std::memory_order_relaxed),
        std::atomic_ref<std::uint64_t>(w.header->dropped_param_updates)
            .load(std::memory_order_relaxed)};
  }
  return total;
}

std::uint64_t ShardedFleet::worker_model_version(std::size_t w) const {
  if (w >= workers_.size()) {
    throw std::out_of_range("ShardedFleet: worker index out of range");
  }
  return std::atomic_ref<std::uint64_t>(
             workers_[w].header->model_version_adopted)
      .load(std::memory_order_relaxed);
}

std::uint64_t ShardedFleet::worker_allocs_last_command(std::size_t w) const {
  if (w >= workers_.size()) {
    throw std::out_of_range("ShardedFleet: worker index out of range");
  }
  return std::atomic_ref<std::uint64_t>(
             workers_[w].header->allocs_last_command)
      .load(std::memory_order_relaxed);
}

}  // namespace socpinn::serve
