#include "serve/shard_worker.hpp"

#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/model_io.hpp"
#include "serve/fleet_engine.hpp"
#include "serve/shm_layout.hpp"

namespace socpinn::serve {

namespace {

void copy_error(WorkerHeader& h, const char* what) {
  std::strncpy(h.error_msg, what, sizeof(h.error_msg) - 1);
  h.error_msg[sizeof(h.error_msg) - 1] = '\0';
}

}  // namespace

void shard_worker_main(const ShardWorkerContext& ctx) {
  // ABI gate, before anything else touches the segment: the parent
  // stamped its shm_layout_hash() into the header BEFORE forking (a plain
  // pre-fork write, so a plain read is race-free here). A mismatch means
  // the two sides disagree on struct layout — every pointer below would
  // be misaligned garbage — so fail loudly instead of serving it.
  const std::uint64_t expected = shm_layout_hash();
  if (ctx.header->layout_hash != expected) {
    std::fprintf(stderr,
                 "shard_worker: shm layout hash mismatch (segment %" PRIx64
                 ", worker %" PRIx64 ") — parent and worker were built from "
                 "different shm ABIs; regenerate tests/serve/shm_layout.golden "
                 "and rebuild both sides\n",
                 ctx.header->layout_hash, expected);
    ::_exit(3);
  }

  const pid_t parent = ::getppid();
  WorkerHeader& h = *ctx.header;
  const std::size_t n = ctx.num_cells;

  // --- setup: adopt the initial model, build the engine over the shard ---
  std::optional<FleetEngine> engine;
  std::optional<nn::Matrix> staged;  ///< reused num_cells x 3 input batch
  std::vector<CellMode> staged_modes;  ///< reused kSetCellModes decode buffer
  std::string blob;
  std::uint64_t model_version = 0;
  std::string fatal;
  try {
    // The parent publishes version 1 before it forks.
    model_version = ctx.model->read_if_newer(0, blob);
    std::istringstream in(blob);
    const core::TwoBranchNet net = core::load_model(in);
    FleetConfig cfg = ctx.engine;
    cfg.external_mailbox_slots = ctx.mailbox_slots;
    engine.emplace(net, n, cfg);
    staged.emplace(n, 3);
    staged_modes.resize(n);
  } catch (const std::exception& e) {
    // Not fatal to the PROTOCOL: keep servicing commands, answering each
    // with this error, so the parent gets a diagnosis instead of a hang.
    fatal = e.what();
  }

  // --- command loop ---
  std::uint64_t acked =
      std::atomic_ref<std::uint64_t>(h.ack_seq).load(std::memory_order_relaxed);
  const std::atomic_ref<std::uint64_t> cmd_seq(h.cmd_seq);
  for (;;) {
    std::uint64_t seq = acked;
    if (!wait_until(
            [&] {
              return (seq = cmd_seq.load(std::memory_order_acquire)) != acked;
            },
            [&] { return ::getppid() == parent; })) {
      // Orphan check: the parent died and we were reparented — nothing
      // will ever command or reap us, so leave instead of leaking.
      ::_exit(2);
    }
    const auto cmd = static_cast<WorkerCommand>(h.cmd);
    if (cmd == WorkerCommand::kStop) {
      h.status = 0;
      std::atomic_ref<std::uint64_t>(h.ack_seq).store(
          seq, std::memory_order_release);
      ::_exit(0);
    }

    h.status = 0;
    std::atomic_ref<std::uint64_t>(h.allocs_last_command)
        .store(0, std::memory_order_relaxed);
    try {
      if (!fatal.empty()) throw std::runtime_error(fatal);

      // Adopt the newest model BEFORE the command body: a version
      // published between commands is served by exactly this command —
      // the deterministic cross-process half of the engines' RCU
      // hot-swap story (the engine-internal swap keeps its own
      // no-torn-tick guarantee below this).
      const std::uint64_t v = ctx.model->read_if_newer(model_version, blob);
      if (v != model_version) {
        std::istringstream in(blob);
        engine->swap_model(core::load_model(in));
        model_version = v;
      }

      const std::size_t before =
          ctx.alloc_counter != nullptr ? ctx.alloc_counter() : 0;
      switch (cmd) {
        case WorkerCommand::kInitFromSensors:
          std::memcpy(staged->data().data(), ctx.input,
                      n * 3 * sizeof(double));
          engine->init_from_sensors(*staged);
          break;
        case WorkerCommand::kSetSoc:
          engine->set_soc(std::span<const double>(ctx.soc, n));
          break;
        case WorkerCommand::kStep:
          std::memcpy(staged->data().data(), ctx.input,
                      n * 3 * sizeof(double));
          engine->step(*staged);
          break;
        case WorkerCommand::kRun:
          engine->run(h.param0, h.param1, h.param2, h.ticks);
          break;
        case WorkerCommand::kSetCellModes:
          // Each input row carries its cell's mode as a double in its
          // first field (0.0 = cascade, anything else = physics).
          for (std::size_t i = 0; i < n; ++i) {
            staged_modes[i] = ctx.input[3 * i] == 0.0
                                  ? CellMode::kCascade
                                  : CellMode::kPhysicsOnly;
          }
          engine->set_cell_modes(staged_modes);
          break;
        default:
          throw std::runtime_error("shard_worker: unknown command");
      }
      std::memcpy(ctx.soc, engine->soc().data(), n * sizeof(double));
      // The export fields are parent-readable at ANY time (ingest_stats
      // aggregation between commands), not just after the ack — relaxed
      // atomic_ref stores keep those reads race-free.
      if (ctx.alloc_counter != nullptr) {
        std::atomic_ref<std::uint64_t>(h.allocs_last_command)
            .store(ctx.alloc_counter() - before, std::memory_order_relaxed);
      }
      const IngestStats stats = engine->ingest_stats();
      std::atomic_ref<std::uint64_t>(h.dropped_sensor_reports)
          .store(stats.dropped_sensor_reports, std::memory_order_relaxed);
      std::atomic_ref<std::uint64_t>(h.dropped_workload_overrides)
          .store(stats.dropped_workload_overrides, std::memory_order_relaxed);
      std::atomic_ref<std::uint64_t>(h.dropped_param_updates)
          .store(stats.dropped_param_updates, std::memory_order_relaxed);
      std::atomic_ref<std::uint64_t>(h.model_version_adopted)
          .store(model_version, std::memory_order_relaxed);
    } catch (const std::exception& e) {
      h.status = 1;
      copy_error(h, e.what());
    } catch (...) {
      h.status = 1;
      copy_error(h, "shard_worker: unknown exception");
    }

    // Everything above is ordered before the parent's acquire of ack_seq.
    std::atomic_ref<std::uint64_t>(h.ack_seq).store(seq,
                                                    std::memory_order_release);
    acked = seq;
  }
}

}  // namespace socpinn::serve
