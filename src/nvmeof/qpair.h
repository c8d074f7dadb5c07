// NVMe-oF I/O queue pairs: bounded submission queues with in-flight
// accounting. A qpair admits at most `depth` outstanding commands; one
// submitted while all are outstanding waits for the earliest completion (the
// host blocks on a free SQ entry — the fabric-level backpressure the paper's
// transport-queueing observations hinge on).
//
// State is a min-heap of outstanding completion times, at most `depth` of
// them. submit(now) pops those <= now; the heap's size is the depth seen and,
// at full depth, its top is the enforced start. commit() pushes the
// completion, or at full depth replaces the top with max(top, complete).
// Outputs depend only on the multiset of busy times (free slots are
// interchangeable), so this is exactly a per-slot queue whose commands take
// the earliest-freeing slot, under two checked preconditions that the engine
// clock and Fabric::submit guarantee: `now` never goes backwards, and
// commit() follows its own submit().
//
// Depth histograms are always recorded; whether the bound delays commands is
// sim::FabricParams::enforce_qpair_depth (off: the ideal fabric stays inert).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/engine.h"

namespace ecf::nvmeof {

class QueuePair {
 public:
  // `depth` must be >= 1. `id` is the NVMe queue id (I/O queues start at 1).
  QueuePair(int id, int depth);

  struct Slot {
    sim::SimTime start = 0;      // earliest start honoring the depth bound
    int depth_at_submit = 0;     // outstanding commands seen at submission
  };

  // Admit a command at time `now`. When `enforce` is set and all slots are
  // outstanding, start is pushed to the earliest completion; otherwise
  // start == now and the bound is accounting-only.
  Slot submit(sim::SimTime now, bool enforce);

  // Record the completion time of the latest submit()'s command `slot`.
  void commit(const Slot& slot, sim::SimTime complete);

  int id() const { return id_; }
  int depth() const { return depth_; }
  std::uint64_t submitted() const { return submitted_; }
  // Seconds commands spent waiting for a free slot (backpressure wait).
  double queued_seconds() const { return queued_seconds_; }
  // Outstanding commands at `now` (not before the latest submit's `now`).
  int in_flight(sim::SimTime now) const;
  // histogram[d] = submissions that found d <= depth commands outstanding.
  const std::vector<std::uint64_t>& depth_histogram() const {
    return depth_hist_;
  }

 private:
  int id_;
  int depth_;
  bool pending_ = false;  // a submit() awaits its commit()
  sim::SimTime last_now_ = -std::numeric_limits<sim::SimTime>::infinity();
  std::vector<sim::SimTime> busy_;  // min-heap of outstanding completions
  std::vector<std::uint64_t> depth_hist_;
  std::uint64_t submitted_ = 0;
  double queued_seconds_ = 0;
};

}  // namespace ecf::nvmeof
