// Distributed execution of alternatives (§3.1, §4.1): ship each
// alternative to its own node with rfork, race them at full speed, return
// the winner's result over the network.
//
// The trade the paper analyzes: "In the distributed case we must actually
// copy state for a remote child... Even if the interprocessor bandwidth
// increases, latency will still restrain distributed performance." Against
// that, a local machine with few processors timeshares: every extra
// alternative slows the others down. This module computes both schedules
// in closed form over a lossless link so benches can locate the crossover
// (EXT-DIST). The executable protocol — loss, retransmission, failover to
// a standby, local fallback — is transport_race.hpp.
#pragma once

#include <vector>

#include "dist/rfork.hpp"
#include "proc/vsched.hpp"

namespace mw {

struct RemoteAltSpec {
  VDuration duration = 0;  // the alternative's own computation time
  bool success = false;
};

struct DistributedRaceResult {
  bool failed = true;
  std::size_t winner = 0;       // index into the specs
  VDuration elapsed = 0;        // parent-observed time to the winner's reply
  VDuration spawn_total = 0;    // serial rfork cost paid by the parent
  std::size_t bytes_shipped = 0;
};

/// Races `specs` with one remote node per alternative. The parent performs
/// the rforks serially (checkpoint creation is parent work); each remote
/// child then runs at full speed; the winner's reply is one small message.
DistributedRaceResult distributed_race(const RemoteForker& forker,
                                       const AddressSpace& parent_image,
                                       const std::vector<RemoteAltSpec>& specs,
                                       bool on_demand = false,
                                       double touch_fraction = 0.3);

/// The same race run locally on `processors` CPUs under timesharing
/// (processor sharing) with the given per-fork cost; returns the winner's
/// finish time, kVTimeMax on total failure.
VDuration local_race(std::size_t processors, VDuration local_fork_cost,
                     const std::vector<RemoteAltSpec>& specs);

}  // namespace mw
