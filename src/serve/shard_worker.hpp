#pragma once
/// \file shard_worker.hpp
/// The worker-process side of the multi-process fleet split: one forked
/// process per serve::Shard, each running the existing FleetEngine over
/// its contiguous cell range and speaking the shm_transport protocol.
///
/// A worker is fork()ed (no exec) by ShardedFleet, so it inherits the
/// parent's mappings and runs this very binary's code: the context below
/// is plain pointers into the fleet segment the child already has. The
/// worker waits for each command through wait_until, the wait the parent
/// uses for acks. It never returns — it services commands until kStop (or
/// until its parent dies), then _exit()s without running static
/// destructors (the inherited stdio buffers belong to the parent; _exit
/// keeps them from flushing twice).
///
/// Determinism contract: the worker only ticks its engine while executing
/// a command, and it adopts the newest ModelRegion version at the top of
/// every command — so a model published between commands is served by
/// exactly the next command (RCU across the fork boundary, no torn
/// ticks), and per-worker results are bitwise identical to a
/// single-process FleetEngine over the same cells (per-cell independence
/// plus the engine's thread-count invariance; the model round-trips
/// through core::save_model's 17-digit text bitwise).

#include <cstddef>

#include "serve/fleet_engine.hpp"
#include "serve/mailbox.hpp"
#include "serve/shm_transport.hpp"

namespace socpinn::serve {

/// Everything a forked worker needs, as plain pointers into inherited
/// mappings: its header, and its shard's slice of each per-cell array.
/// Built by ShardedFleet; all pointers outlive the worker (the parent
/// keeps the segments mapped until after waitpid).
struct ShardWorkerContext {
  WorkerHeader* header = nullptr;
  MailboxSlot* mailbox_slots = nullptr;  ///< num_cells slots (engine-external)
  double* soc = nullptr;                 ///< num_cells, worker -> parent
  double* input = nullptr;               ///< 3 * num_cells, parent -> worker
  std::size_t num_cells = 0;             ///< this shard's cell count
  const ModelRegion* model = nullptr;    ///< shared versioned model store

  /// The worker engine's config, as the parent resolved it; the worker
  /// only points external_mailbox_slots at `mailbox_slots`.
  FleetConfig engine;

  /// Optional allocation probe: a function returning this process's
  /// cumulative allocation count (e.g. a counting operator new installed
  /// by a test or bench binary — the child inherits it through fork).
  /// When set, the worker exports the delta across each command's engine
  /// execution as WorkerHeader::allocs_last_command; when null it exports
  /// zero. This is how the steady-state allocation-free contract is
  /// asserted ACROSS the process boundary.
  std::size_t (*alloc_counter)() = nullptr;
};

/// Runs the worker command loop; never returns (_exit on kStop, parent
/// death, or an unservable fatal error). Call only in a freshly forked
/// child.
[[noreturn]] void shard_worker_main(const ShardWorkerContext& ctx);

}  // namespace socpinn::serve
