// An in-process distributed race for tests: one RaceCoordinator (node 100)
// and `n` RaceWorkers (nodes 1..n) sharing one SimTransport, so a whole
// cluster — loss, kills, partitions, failover — replays from its seed.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "dist/sim_transport.hpp"
#include "dist/transport_race.hpp"
#include "util/des.hpp"

namespace mw {

inline RaceConfig sim_race_config() {
  RaceConfig c;
  c.steps_per_checkpoint = 64;
  c.slice_delay = vt_ms(1);
  return c;
}

struct SimRaceCluster {
  static constexpr NodeId kCoordinator = 100;

  /// Builds the cluster and runs at least 10 ms of virtual time: on a
  /// lossless link every join has landed by then; on a lossy one the
  /// cluster keeps running until they have (or 10 s have passed).
  explicit SimRaceCluster(std::size_t n, RaceConfig config = sim_race_config(),
                          LinkModel link = {}, std::uint64_t seed = 1)
      : transport(queue, link, seed),
        coordinator(transport, kCoordinator, config) {
    for (std::size_t i = 1; i <= n; ++i)
      workers.push_back(std::make_unique<RaceWorker>(transport, NodeId(i),
                                                     kCoordinator, config));
    transport.run_until(vt_ms(10));
    pump_until([&] { return coordinator.joined() == n; }, vt_sec(10));
  }

  /// The worker object serving `node`.
  RaceWorker& worker(NodeId node) { return *workers.at(node - 1); }

  /// Steps the simulation until `pred` holds. False when `budget` of
  /// virtual time passes first or the event queue runs dry.
  bool pump_until(const std::function<bool()>& pred,
                  VDuration budget = vt_sec(30)) {
    const VTime deadline = transport.now() + budget;
    while (!pred()) {
      if (transport.now() >= deadline || !transport.poll()) return false;
    }
    return true;
  }

  EventQueue queue;
  SimTransport transport;
  RaceCoordinator coordinator;
  std::vector<std::unique_ptr<RaceWorker>> workers;
};

}  // namespace mw
