#pragma once
/// \file ledger.hpp
/// The benchmark's own publish log for one mailbox slot kind. Every publish
/// happens on the calling thread between ticks, and a slot holds only its
/// newest message, so the outcome of the next drain is known exactly: per
/// cell, the last message published since the previous tick is applied if
/// valid and dropped if not, and every earlier one was coalesced (superseded
/// before any drain saw it). The engine's ingest_stats() must match the
/// predicted drop count tick by tick.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

struct IngestTally {
  std::uint64_t published = 0;
  std::uint64_t applied = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t dropped = 0;

  IngestTally& operator+=(const IngestTally& o) {
    published += o.published;
    applied += o.applied;
    coalesced += o.coalesced;
    dropped += o.dropped;
    return *this;
  }

  /// Counts accrued since `earlier` (an older snapshot of the same log).
  [[nodiscard]] IngestTally since(const IngestTally& earlier) const {
    return {published - earlier.published, applied - earlier.applied,
            coalesced - earlier.coalesced, dropped - earlier.dropped};
  }
};

template <typename Payload>
class KindLedger {
 public:
  explicit KindLedger(std::size_t num_cells)
      : latest_(num_cells), valid_(num_cells, 0), stamp_(num_cells, 0) {
    touched_.reserve(num_cells);
  }

  /// Records one publish to `cell`; `valid` is the drain's acceptance rule
  /// for this payload.
  void publish(std::size_t cell, const Payload& payload, bool valid) {
    ++tally_.published;
    if (stamp_[cell] == epoch_) {
      ++tally_.coalesced;
    } else {
      stamp_[cell] = epoch_;
      touched_.push_back(cell);
    }
    latest_[cell] = payload;
    valid_[cell] = valid ? 1 : 0;
  }

  /// Resolves the drain of one tick: calls on_applied(cell, payload) for
  /// each cell whose newest message is valid, counts the rest as dropped,
  /// and starts the next inter-tick interval.
  template <typename F>
  void drain(F&& on_applied) {
    for (const std::size_t cell : touched_) {
      if (valid_[cell] != 0) {
        ++tally_.applied;
        on_applied(cell, latest_[cell]);
      } else {
        ++tally_.dropped;
      }
    }
    touched_.clear();
    ++epoch_;
  }

  /// Cells with a message pending for the next drain.
  [[nodiscard]] std::size_t pending() const { return touched_.size(); }
  [[nodiscard]] const IngestTally& tally() const { return tally_; }

 private:
  std::vector<Payload> latest_;
  std::vector<std::uint8_t> valid_;
  std::vector<std::uint64_t> stamp_;  ///< epoch of the cell's last publish
  std::vector<std::size_t> touched_;
  std::uint64_t epoch_ = 1;
  IngestTally tally_;
};

}  // namespace perfbench
