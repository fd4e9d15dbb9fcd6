// Remote fork over the simulated network, after Smith & Ioannidis [19].
//
// Two strategies:
//  * full_copy — the paper's implementation: take a checkpoint (the major
//    cost, done without OS modification), ship it through the network file
//    system, restore remotely. Calibrated so a 70 KB process takes a bit
//    under a second of simulated time, ≈1.3 s through the NFS-based
//    remote-execution protocol — the §3.4 numbers.
//  * on_demand — the "more sophisticated migration schemes using on-demand
//    state management" the paper cites [23]: ship only the control block
//    and page map; pages fault over the network on first remote touch.
//    Start latency is tiny; run-time cost depends on the touched fraction
//    (locality makes this small for real programs).
#pragma once

#include <cstddef>

#include "dist/checkpoint.hpp"
#include "dist/net_sim.hpp"
#include "pagestore/address_space.hpp"
#include "util/vtime.hpp"

namespace mw {

/// Host-side processing costs, distinct from network costs.
struct DistCost {
  // Checkpoint creation ("the major cost"): dump every resident page to an
  // executable file.
  VDuration checkpoint_base = vt_ms(100);
  VDuration checkpoint_per_page = vt_ms(35);  // 4K pages
  // Bootstrapping a restored image.
  VDuration restore_base = vt_ms(50);
  VDuration restore_per_page = vt_ms(5);
  // Servicing one remote page fault (request + handler, excluding network).
  VDuration remote_fault_service = vt_ms(2);
};

struct RforkResult {
  /// Simulated time until the remote child is running.
  VDuration start_elapsed = 0;
  /// start_elapsed plus the expected run-time page-fetch cost (on-demand
  /// only; equals start_elapsed for full copy).
  VDuration total_elapsed = 0;
  std::size_t bytes_shipped = 0;
  std::size_t pages_shipped = 0;
  VDuration checkpoint_cost = 0;
  VDuration transfer_cost = 0;
  VDuration restore_cost = 0;
  VDuration fault_cost = 0;
};

class RemoteForker {
 public:
  RemoteForker(LinkModel link, DistCost cost) : link_(link), cost_(cost) {}

  /// Checkpoint/ship/restore through the NFS-style protocol: the image is
  /// written to the file server, a small exec request goes to the remote
  /// host, which reads the image back from the server and restores it.
  RforkResult full_copy(const AddressSpace& src) const;

  /// On-demand migration: ship the control block + page map now; fetch
  /// `touch_fraction` of the resident pages across the network as the
  /// remote child references them.
  RforkResult on_demand(const AddressSpace& src, double touch_fraction) const;

 private:
  LinkModel link_;
  DistCost cost_;
};

}  // namespace mw
