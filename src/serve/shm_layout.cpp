#include "serve/shm_layout.hpp"

#include <cstddef>
#include <sstream>

#include "serve/mailbox.hpp"
#include "serve/shm_transport.hpp"

namespace socpinn::serve {

namespace {

/// One field line. The macro keeps struct/field names literal (greppable
/// against the headers) while offsetof/sizeof stay compiler-evaluated.
#define SOCPINN_LAYOUT_FIELD(out, Struct, field)                     \
  (out) << "field " #Struct "." #field " offset=" <<                 \
      offsetof(Struct, field) << " size=" << sizeof(Struct::field) \
        << "\n"

void struct_line(std::ostream& out, const char* name, std::size_t size,
                 std::size_t align) {
  out << "struct " << name << " size=" << size << " align=" << align << "\n";
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 14695981039346656037ULL;  // FNV offset basis
  for (const char c : bytes) {
    hash ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    hash *= 1099511628211ULL;  // FNV prime
  }
  return hash;
}

std::string shm_layout_manifest() {
  std::ostringstream out;
  out << "socpinn shm layout manifest v1\n";

  // The seqlock payload slot (private fields; its external contract is
  // its footprint, pinned here, plus mailbox.hpp's own static_asserts).
  struct_line(out, "detail::SeqlockSlot3", sizeof(detail::SeqlockSlot3),
              alignof(detail::SeqlockSlot3));

  struct_line(out, "MailboxSlot", sizeof(MailboxSlot), alignof(MailboxSlot));
  SOCPINN_LAYOUT_FIELD(out, MailboxSlot, sensors);
  SOCPINN_LAYOUT_FIELD(out, MailboxSlot, workload);
  SOCPINN_LAYOUT_FIELD(out, MailboxSlot, params);
  SOCPINN_LAYOUT_FIELD(out, MailboxSlot, sensor_cursor);
  SOCPINN_LAYOUT_FIELD(out, MailboxSlot, workload_cursor);
  SOCPINN_LAYOUT_FIELD(out, MailboxSlot, param_cursor);

  struct_line(out, "WorkerHeader", sizeof(WorkerHeader),
              alignof(WorkerHeader));
  SOCPINN_LAYOUT_FIELD(out, WorkerHeader, layout_hash);
  SOCPINN_LAYOUT_FIELD(out, WorkerHeader, cmd_seq);
  SOCPINN_LAYOUT_FIELD(out, WorkerHeader, cmd);
  SOCPINN_LAYOUT_FIELD(out, WorkerHeader, param0);
  SOCPINN_LAYOUT_FIELD(out, WorkerHeader, param1);
  SOCPINN_LAYOUT_FIELD(out, WorkerHeader, param2);
  SOCPINN_LAYOUT_FIELD(out, WorkerHeader, ticks);
  SOCPINN_LAYOUT_FIELD(out, WorkerHeader, ack_seq);
  SOCPINN_LAYOUT_FIELD(out, WorkerHeader, status);
  SOCPINN_LAYOUT_FIELD(out, WorkerHeader, dropped_sensor_reports);
  SOCPINN_LAYOUT_FIELD(out, WorkerHeader, dropped_workload_overrides);
  SOCPINN_LAYOUT_FIELD(out, WorkerHeader, dropped_param_updates);
  SOCPINN_LAYOUT_FIELD(out, WorkerHeader, model_version_adopted);
  SOCPINN_LAYOUT_FIELD(out, WorkerHeader, allocs_last_command);
  SOCPINN_LAYOUT_FIELD(out, WorkerHeader, error_msg);

  struct_line(out, "ModelRegionHeader", sizeof(ModelRegionHeader),
              alignof(ModelRegionHeader));
  SOCPINN_LAYOUT_FIELD(out, ModelRegionHeader, seq);
  SOCPINN_LAYOUT_FIELD(out, ModelRegionHeader, size);
  SOCPINN_LAYOUT_FIELD(out, ModelRegionHeader, capacity);

  // Command values are ABI too — a renumbered enum would make an old
  // worker execute the wrong verb.
  out << "enum WorkerCommand"
      << " kNone=" << static_cast<std::uint32_t>(WorkerCommand::kNone)
      << " kInitFromSensors="
      << static_cast<std::uint32_t>(WorkerCommand::kInitFromSensors)
      << " kSetSoc=" << static_cast<std::uint32_t>(WorkerCommand::kSetSoc)
      << " kStep=" << static_cast<std::uint32_t>(WorkerCommand::kStep)
      << " kRun=" << static_cast<std::uint32_t>(WorkerCommand::kRun)
      << " kStop=" << static_cast<std::uint32_t>(WorkerCommand::kStop)
      << " kSetCellModes="
      << static_cast<std::uint32_t>(WorkerCommand::kSetCellModes) << "\n";

  // Segment arithmetic probed at non-trivial counts: the offsets are pure
  // functions of num_cells and workers, so one sample pins the formulas.
  const WorkerSegmentLayout probe{3, 2};
  out << "layout WorkerSegmentLayout(num_cells=3, workers=2)"
      << " header(1)=" << probe.header_offset(1)
      << " mailbox=" << probe.mailbox_offset()
      << " soc=" << probe.soc_offset() << " input=" << probe.input_offset()
      << " total=" << probe.total_size() << "\n";

  return out.str();
}

std::uint64_t shm_layout_hash() { return fnv1a64(shm_layout_manifest()); }

}  // namespace socpinn::serve
