// The distributed alternative race as an executable protocol on the
// Transport seam (§3.1, §4.1) — the repo's one implementation of the
// race's loss, retry, failover and fallback behaviour (remote_alt.hpp
// keeps only the paper's lossless closed-form schedule). A
// RaceCoordinator rforks work to RaceWorkers by
// shipping full checkpoint images over a TransportChannel; workers execute
// the alternative in timer-driven slices, shipping a delta checkpoint of
// their write set every few slices; the coordinator keeps each
// alternative's chain and, when heartbeats declare a worker dead, restores
// the newest chain, re-seals it as a fresh full image, and re-dispatches
// it to a standby — or, with no standby left (total partition), degrades
// gracefully by finishing the alternative locally from the same chain.
// Each re-dispatch traces dist_failover (a = alt, b = re-sealed image
// bytes); each local finish traces dist_demote (a = alt).
//
// Because everything is messages and Transport timers — no sleeps, no
// threads — the identical coordinator/worker code runs in-process on
// SimTransport (deterministic, seeded) and across real processes on
// SocketTransport (where a dead worker is a SIGKILLed pid).
//
// Message protocol (payloads inside TransportChannel transfers):
//
//   kJoin     u8=1                                   worker -> coordinator
//   kFork     u8=2 | alt u64 | steps u64 | per_ckpt u64 | image blob
//   kCkpt     u8=3 | alt u64 | step u64 | image blob  worker -> coordinator
//   kResult   u8=4 | alt u64 | final u64 | acc u64 | start u64
//   kShutdown u8=5                                   coordinator -> worker
//
// The workload is a deterministic recurrence over checkpointed memory
// (segment "race": step counter, accumulator; segment "scratch": per-step
// writes that give the delta images a real write set), so a failover is
// *provable*: the replacement's kResult carries the step it resumed from
// (start > 0 iff shipped checkpoints preserved work) and the accumulator
// must still equal race_reference(steps) — state carried through kill,
// ship, and restore with no recomputation from zero.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "dist/checkpoint.hpp"
#include "dist/transport_channel.hpp"

namespace mw {

/// The recurrence every alternative computes: acc' = acc * K + step.
/// Closed over [0, steps); the coordinator checks results against this.
std::uint64_t race_reference(std::uint64_t steps);

struct RaceConfig {
  RetryPolicy retry;
  PeerHealthConfig health;
  std::uint64_t seed = 1;
  std::uint64_t steps_per_checkpoint = 64;  // slice size = shipping cadence
  /// Delay between a worker's step slices — the knob that makes room for
  /// kills and partitions to land mid-run. Virtual ticks on sim, real
  /// microseconds on sockets.
  VDuration slice_delay = vt_ms(1);
  std::size_t page_size = 256;
  std::size_t num_pages = 64;
  std::size_t max_failovers = 4;  // per alternative
};

struct RaceAltOutcome {
  bool completed = false;
  std::uint64_t final_step = 0;
  std::uint64_t accumulator = 0;
  /// The step the finishing executor resumed from: 0 for an undisturbed
  /// run, > 0 when a failover restored shipped work.
  std::uint64_t start_step = 0;
  std::size_t failovers = 0;
  bool finished_locally = false;  // graceful degradation path
  bool accumulator_ok = false;    // matches race_reference(steps)
};

struct RaceOutcome {
  bool all_completed = false;
  std::size_t winner = 0;  // index of the first alternative to finish
  std::vector<RaceAltOutcome> alts;
  std::size_t checkpoints_received = 0;
  std::size_t bytes_shipped = 0;  // fork + checkpoint image bytes
  std::size_t failovers = 0;
  bool used_local_fallback = false;
};

/// One worker endpoint: joins a coordinator, executes kFork'd alternatives
/// in timer slices, ships deltas, reports results. Drive the owning
/// transport's run()/run_until(); done() turns true on kShutdown, when the
/// coordinator goes heartbeat-dead after acknowledging the join, or when
/// the join never gets through (an orphaned worker must exit, not spin
/// forever).
class RaceWorker {
 public:
  RaceWorker(Transport& transport, NodeId self, NodeId coordinator,
             RaceConfig config = {});

  NodeId self() const { return self_; }
  bool done() const { return done_; }
  TransportChannel& channel() { return channel_; }

  /// Simulated process death for in-process (sim) tests: the worker goes
  /// silent immediately — no more slices, beats, acks, or shipments — the
  /// same observable behavior a SIGKILLed process has.
  void kill();

 private:
  struct Task {
    std::uint64_t alt = 0;
    std::uint64_t steps = 0;
    std::uint64_t per_ckpt = 0;
    std::uint64_t start_step = 0;
    AddressSpace space{1, 1};
    AddressSpace snapshot{1, 1};  // COW base of the last shipped image
    CheckpointImage last_shipped;
    std::uint64_t race_base = 0;
    std::uint64_t scratch_base = 0;
    std::uint64_t scratch_size = 0;
  };

  void send_join();
  void on_payload(NodeId from, const Bytes& payload);
  void start_task(const Bytes& payload);
  void run_slice(std::uint64_t alt);
  void ship_delta(Task& t);
  void finish_task(Task& t);

  Transport& transport_;
  NodeId self_;
  NodeId coordinator_;
  RaceConfig config_;
  TransportChannel channel_;
  std::map<std::uint64_t, Task> tasks_;
  std::size_t join_rounds_ = 0;  // join sends whose retries ran out
  bool done_ = false;
};

/// The parent side: collects joins, dispatches alternatives, tracks
/// checkpoint chains, and turns heartbeat deaths into failovers. Drive the
/// owning transport until done().
class RaceCoordinator {
 public:
  RaceCoordinator(Transport& transport, NodeId self, RaceConfig config = {});

  NodeId self() const { return self_; }
  TransportChannel& channel() { return channel_; }

  std::size_t joined() const { return workers_.size(); }
  /// Joined worker nodes in join order (assignment order for start()).
  const std::vector<NodeId>& workers() const { return workers_; }
  /// Images held for `alt` (1 = just the dispatched full image); tests use
  /// this to kill a worker only after deltas have actually shipped.
  std::size_t chain_length(std::uint64_t alt) const;
  /// Dispatches `steps[i]` to the i-th joined worker (the rest stand by).
  /// Requires at least steps.size() joined workers.
  void start(const std::vector<std::uint64_t>& steps);
  bool done() const { return done_; }
  /// Valid once done(): per-alternative outcomes + shipping totals.
  const RaceOutcome& outcome() const { return outcome_; }

 private:
  struct Alt {
    std::uint64_t steps = 0;
    std::optional<NodeId> assigned;
    std::vector<CheckpointImage> chain;  // full, then deltas, in order
    RaceAltOutcome result;
  };

  void on_payload(NodeId from, const Bytes& payload);
  void on_peer_transition(NodeId peer, PeerState state);
  void dispatch(std::uint64_t alt, NodeId worker,
                const CheckpointImage& image);
  CheckpointImage make_initial_image(std::uint64_t steps);
  void fail_over(std::uint64_t alt);
  void finish_locally(std::uint64_t alt, RestoreResult restored);
  void maybe_finish();

  Transport& transport_;
  NodeId self_;
  RaceConfig config_;
  TransportChannel channel_;
  std::vector<NodeId> workers_;  // join order; standbys are the tail
  std::map<std::uint64_t, Alt> alts_;
  bool started_ = false;
  bool done_ = false;
  RaceOutcome outcome_;
};

}  // namespace mw
