#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/runtime_auditor.hpp"
#include "sim_race_cluster.hpp"
#include "dist/socket_transport.hpp"
#include "fault/fault.hpp"
#include "trace/spec_profile.hpp"
#include "trace/trace.hpp"
#include "util/des.hpp"

namespace mw {
namespace {

TEST(RaceReference, RecurrenceIsDeterministic) {
  EXPECT_EQ(race_reference(0), 0u);
  EXPECT_EQ(race_reference(1000), race_reference(1000));
  EXPECT_NE(race_reference(1000), race_reference(1001));
}

TEST(RaceSim, UndisturbedRaceCompletesWithCorrectAccumulators) {
  SimRaceCluster c(2);
  ASSERT_EQ(c.coordinator.joined(), 2u);
  c.coordinator.start({1000, 600});
  c.transport.run_until(vt_sec(2));
  ASSERT_TRUE(c.coordinator.done());
  const RaceOutcome& out = c.coordinator.outcome();
  EXPECT_TRUE(out.all_completed);
  ASSERT_EQ(out.alts.size(), 2u);
  for (const RaceAltOutcome& alt : out.alts) {
    EXPECT_TRUE(alt.accumulator_ok);
    EXPECT_EQ(alt.start_step, 0u);  // nobody restored anything
    EXPECT_EQ(alt.failovers, 0u);
    EXPECT_FALSE(alt.finished_locally);
  }
  EXPECT_EQ(out.alts[0].accumulator, race_reference(1000));
  EXPECT_EQ(out.alts[1].accumulator, race_reference(600));
  EXPECT_GT(out.checkpoints_received, 0u);
  EXPECT_EQ(out.failovers, 0u);
  EXPECT_FALSE(out.used_local_fallback);
}

/// Drains the trace rings into a profile (the caller opened the Scope).
[[maybe_unused]] trace::SpecProfile drained_profile() {
  EXPECT_EQ(trace::dropped(), 0u);
  return trace::build_spec_profile(trace::drain());
}

TEST(RaceSim, KilledWorkerFailsOverToStandbyPreservingWork) {
  trace::reset();
  trace::Scope scope;
  SimRaceCluster c(3);  // 2 assigned + 1 standby
  ASSERT_EQ(c.coordinator.joined(), 3u);
  c.coordinator.start({4000, 500});

  // Let the victim ship real deltas, then kill it mid-run.
  while (c.coordinator.chain_length(0) < 4) c.transport.poll();
  ASSERT_FALSE(c.coordinator.done());
  const NodeId victim = c.coordinator.workers()[0];
  c.workers[victim - 1]->kill();

  c.transport.run_until(c.transport.now() + vt_sec(5));
  ASSERT_TRUE(c.coordinator.done());
  const RaceOutcome& out = c.coordinator.outcome();
  EXPECT_TRUE(out.all_completed);
  EXPECT_EQ(out.failovers, 1u);
  const RaceAltOutcome& failed_over = out.alts[0];
  EXPECT_TRUE(failed_over.accumulator_ok);
  EXPECT_EQ(failed_over.accumulator, race_reference(4000));
  EXPECT_EQ(failed_over.failovers, 1u);
  // The proof of work preservation: the replacement resumed from shipped
  // state, not from zero.
  EXPECT_GT(failed_over.start_step, 0u);
  EXPECT_FALSE(failed_over.finished_locally);
  EXPECT_FALSE(out.used_local_fallback);
#if !defined(MW_TRACE_DISABLED)
  const trace::SpecProfile p = drained_profile();
  EXPECT_EQ(p.count(trace::EventKind::kDistFailover), 1u);
  EXPECT_EQ(p.count(trace::EventKind::kDistDemote), 0u);
  EXPECT_EQ(p.restarts(), 1u);
#endif
}

TEST(RaceSim, FailoverBudgetExhaustionFinishesLocally) {
  RaceConfig config = sim_race_config();
  config.max_failovers = 1;
  SimRaceCluster c(3, config);  // 1 assigned + 2 standbys
  c.coordinator.start({4000});

  // Kill the assigned worker once deltas have shipped, then kill the
  // standby that took it over (the next worker in join order). A standby
  // is still free, so only the budget of one sends the alt home.
  ASSERT_TRUE(c.pump_until([&] { return c.coordinator.chain_length(0) >= 4; }));
  c.worker(c.coordinator.workers()[0]).kill();
  ASSERT_TRUE(
      c.pump_until([&] { return c.coordinator.outcome().failovers == 1; }));
  ASSERT_TRUE(c.pump_until([&] { return c.coordinator.chain_length(0) >= 2; }));
  ASSERT_FALSE(c.coordinator.done());
  c.worker(c.coordinator.workers()[1]).kill();

  c.transport.run_until(c.transport.now() + vt_sec(5));
  ASSERT_TRUE(c.coordinator.done());
  const RaceAltOutcome& alt = c.coordinator.outcome().alts[0];
  EXPECT_TRUE(alt.finished_locally);
  EXPECT_TRUE(alt.accumulator_ok);
  EXPECT_EQ(alt.failovers, 2u);
  EXPECT_TRUE(c.coordinator.outcome().used_local_fallback);
}

TEST(RaceSim, SingleKilledWorkerWithNoStandbyFinishesLocally) {
  SimRaceCluster c(1);
  c.coordinator.start({4000});
  ASSERT_TRUE(c.pump_until([&] { return c.coordinator.chain_length(0) >= 4; }));
  ASSERT_FALSE(c.coordinator.done());
  c.worker(1).kill();

  c.transport.run_until(c.transport.now() + vt_sec(5));
  ASSERT_TRUE(c.coordinator.done());
  const RaceOutcome& out = c.coordinator.outcome();
  EXPECT_TRUE(out.all_completed);
  EXPECT_TRUE(out.used_local_fallback);
  EXPECT_TRUE(out.alts[0].finished_locally);
  EXPECT_TRUE(out.alts[0].accumulator_ok);
  EXPECT_EQ(out.alts[0].failovers, 1u);
  // The coordinator resumed from the shipped chain, not from step 0.
  EXPECT_GT(out.alts[0].start_step, 0u);
}

TEST(RaceSim, FailoverIsDeterministicPerSeed) {
  auto run = [] {
    SimRaceCluster c(3);
    c.coordinator.start({4000, 500});
    while (c.coordinator.chain_length(0) < 4) c.transport.poll();
    c.workers[c.coordinator.workers()[0] - 1]->kill();
    c.transport.run_until(c.transport.now() + vt_sec(5));
    EXPECT_TRUE(c.coordinator.done());
    const RaceOutcome& out = c.coordinator.outcome();
    return std::tuple(out.checkpoints_received, out.bytes_shipped,
                      out.alts[0].start_step, out.alts[0].accumulator);
  };
  EXPECT_EQ(run(), run());
}

TEST(RaceSim, TotalPartitionDegradesToLocalExecution) {
  trace::reset();
  trace::Scope scope;
  SimRaceCluster c(1);
  c.coordinator.start({4000});
  while (c.coordinator.chain_length(0) < 4) c.transport.poll();
  ASSERT_FALSE(c.coordinator.done());

  // Sever both directions: the worker is alive but unreachable — the
  // coordinator must finish the alternative itself from the shipped chain.
  const NodeId worker = c.coordinator.workers()[0];
  c.transport.set_link_blocked(100, worker, true);
  c.transport.set_link_blocked(worker, 100, true);
  c.transport.run_until(c.transport.now() + vt_sec(5));

  ASSERT_TRUE(c.coordinator.done());
  const RaceOutcome& out = c.coordinator.outcome();
  EXPECT_TRUE(out.used_local_fallback);
  EXPECT_TRUE(out.alts[0].finished_locally);
  EXPECT_TRUE(out.alts[0].accumulator_ok);
  EXPECT_GT(out.alts[0].start_step, 0u);
  EXPECT_GT(c.transport.stats().messages_partitioned, 0u);
#if !defined(MW_TRACE_DISABLED)
  const trace::SpecProfile p = drained_profile();
  EXPECT_EQ(p.count(trace::EventKind::kDistDemote), 1u);
  EXPECT_EQ(p.count(trace::EventKind::kDistFailover), 0u);
#endif
}

TEST(RaceSim, FailoverCompletesAuditorClean) {
  // Checkpoint shipping + chain restore churns a lot of COW pages; a
  // failover must not leak any of them. Baseline before the cluster
  // exists, audit after it is torn down.
  RuntimeAuditor auditor;
  {
    SimRaceCluster c(3);
    c.coordinator.start({4000, 500});
    while (c.coordinator.chain_length(0) < 4) c.transport.poll();
    c.workers[c.coordinator.workers()[0] - 1]->kill();
    c.transport.run_until(c.transport.now() + vt_sec(5));
    ASSERT_TRUE(c.coordinator.done());
    EXPECT_TRUE(c.coordinator.outcome().all_completed);
    EXPECT_EQ(c.coordinator.outcome().failovers, 1u);
  }
  const ProcessTable empty;
  const AuditReport report = auditor.run(empty);
  EXPECT_EQ(report.leaked_pages, 0)
      << (report.violations.empty() ? "" : report.violations.front());
}

TEST(RaceSimFaultMatrix, DropAndDelayFaultsNeverBreakTheRace) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    FaultInjector inj(seed);
    inj.arm("net.drop",
            FaultSpec::with_probability(FaultKind::kDropMessage, 0.05));
    inj.arm("net.delay",
            FaultSpec::with_probability(FaultKind::kDelay, 0.1)
                .delayed(vt_ms(3)));
    inj.arm("net.dup",
            FaultSpec::with_probability(FaultKind::kDuplicateMessage, 0.05));
    FaultScope scope(inj);
    SimRaceCluster c(2, sim_race_config(), LinkModel{}, seed);
    c.coordinator.start({1500, 800});
    c.transport.run_until(vt_sec(10));
    ASSERT_TRUE(c.coordinator.done())
        << "seed " << seed << "\n" << inj.log_string();
    EXPECT_TRUE(c.coordinator.outcome().all_completed)
        << "seed " << seed << "\n" << inj.log_string();
  }
}

TEST(TransportRace, JoinOutlastingTheDeadTimeoutStillJoins) {
  // On a lossy link a join can still be in retransmission when the
  // worker's dead timeout would expire. The coordinator beats only the
  // workers it has heard from, so the worker must not judge it dead
  // before the join is acknowledged. Here every join frame is lost until
  // past the dead timeout; the last retry of the first round gets through.
  const RaceConfig config = sim_race_config();
  EventQueue queue;
  SimTransport transport(queue, LinkModel{}, 1);
  RaceCoordinator coordinator(transport, SimRaceCluster::kCoordinator, config);
  const NodeId node = 1;
  transport.set_link_blocked(node, SimRaceCluster::kCoordinator, true);
  RaceWorker worker(transport, node, SimRaceCluster::kCoordinator, config);
  transport.run_until(config.health.dead_after + vt_ms(100));
  EXPECT_FALSE(worker.done());
  EXPECT_EQ(coordinator.joined(), 0u);

  transport.set_link_blocked(node, SimRaceCluster::kCoordinator, false);
  transport.run_until(transport.now() + vt_sec(1));
  ASSERT_EQ(coordinator.joined(), 1u);
  EXPECT_FALSE(worker.done());

  coordinator.start({600});
  transport.run_until(transport.now() + vt_sec(2));
  ASSERT_TRUE(coordinator.done());
  EXPECT_TRUE(coordinator.outcome().all_completed);
  EXPECT_EQ(coordinator.outcome().failovers, 0u);
}

TEST(TransportRace, WorkerWhoseJoinNeverLandsExits) {
  // The other side of the rule above: a worker that cannot reach its
  // coordinator at all is an orphan, and gives up after a bounded number
  // of join rounds instead of spinning forever.
  const RaceConfig config = sim_race_config();
  EventQueue queue;
  SimTransport transport(queue, LinkModel{}, 1);
  const NodeId node = 1;
  transport.set_link_blocked(node, SimRaceCluster::kCoordinator, true);
  RaceWorker worker(transport, node, SimRaceCluster::kCoordinator, config);
  transport.run_until(config.retry.exhausted_budget());
  EXPECT_FALSE(worker.done());  // one round of join retries is not enough
  transport.run_until(vt_sec(10));
  EXPECT_TRUE(worker.done());
}

// --- the multi-process socket race ----------------------------------------

/// Forked worker process body: joins the coordinator over loopback UDP,
/// serves the race protocol, exits on shutdown (or a 30 s safety budget).
[[noreturn]] void worker_process(NodeId node, std::uint16_t coord_port,
                                 const RaceConfig& config) {
  SocketTransport transport(node);
  transport.add_peer(100, coord_port);
  RaceWorker worker(transport, node, 100, config);
  const VTime budget = transport.now() + 30 * vt_sec(1);
  while (!worker.done() && transport.now() < budget)
    transport.run_until(transport.now() + vt_ms(2));
  _exit(0);
}

RaceConfig socket_config() {
  RaceConfig c;
  c.steps_per_checkpoint = 64;
  c.slice_delay = vt_ms(2);  // real milliseconds
  c.retry.rto_initial = vt_ms(10);
  c.retry.rto_cap = vt_ms(80);
  c.retry.max_attempts = 8;
  c.health.heartbeat_interval = vt_ms(10);
  c.health.suspect_after = vt_ms(60);
  c.health.dead_after = vt_ms(150);
  return c;
}

/// Reaps every child at scope exit so a failing ASSERT can't leak zombies
/// or orphaned workers into the test runner.
struct ChildReaper {
  std::vector<pid_t> pids;
  ~ChildReaper() {
    for (pid_t p : pids) ::kill(p, SIGKILL);
    for (pid_t p : pids) ::waitpid(p, nullptr, 0);
  }
};

TEST(RaceSocket, MultiProcessRaceSurvivesSigkilledWorker) {
  const RaceConfig config = socket_config();
  SocketTransport transport(100);  // bound before forking: children know it
  RaceCoordinator coordinator(transport, 100, config);

  ChildReaper children;
  for (NodeId node = 1; node <= 3; ++node) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) worker_process(node, transport.port(), config);
    children.pids.push_back(pid);
  }

  auto pump = [&](const std::function<bool()>& pred, int budget_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(budget_ms);
    while (!pred()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      transport.run_until(transport.now() + vt_ms(2));
    }
    return true;
  };

  ASSERT_TRUE(pump([&] { return coordinator.joined() == 3; }, 5000));
  coordinator.start({6000, 2000});

  // Kill the worker running alt 0 — a real SIGKILL of a real process —
  // but only after its checkpoints have actually crossed the wire.
  ASSERT_TRUE(pump([&] { return coordinator.chain_length(0) >= 3; }, 5000));
  ASSERT_FALSE(coordinator.done());
  const NodeId victim = coordinator.workers()[0];
  const pid_t victim_pid = children.pids[victim - 1];
  ASSERT_EQ(::kill(victim_pid, SIGKILL), 0);
  ::waitpid(victim_pid, nullptr, 0);

  ASSERT_TRUE(pump([&] { return coordinator.done(); }, 20000));
  const RaceOutcome& out = coordinator.outcome();
  EXPECT_TRUE(out.all_completed);
  EXPECT_GE(out.failovers, 1u);
  const RaceAltOutcome& failed_over = out.alts[0];
  EXPECT_TRUE(failed_over.accumulator_ok);
  EXPECT_EQ(failed_over.accumulator, race_reference(6000));
  // Failover re-dispatched the newest shipped chain: the replacement
  // resumed mid-run instead of recomputing from step 0.
  EXPECT_GT(failed_over.start_step, 0u);
  EXPECT_TRUE(out.alts[1].accumulator_ok);

  // The survivors exit on kShutdown; reap them here so the reaper's
  // SIGKILL backstop stays a no-op on the happy path.
  for (pid_t p : children.pids) {
    if (p == victim_pid) continue;
    int status = 0;
    EXPECT_EQ(::waitpid(p, &status, 0), p);
    EXPECT_TRUE(WIFEXITED(status));
  }
  children.pids.clear();
}

TEST(RaceSocketFaultMatrix, InjectedDropsNeverBreakTheMultiProcessRace) {
  // Faults are injected in the *coordinator* process (children inherit no
  // injector): its sends and acks are the ones randomly eaten.
  FaultInjector inj(3);
  inj.arm("net.drop",
          FaultSpec::with_probability(FaultKind::kDropMessage, 0.05));
  FaultScope scope(inj);

  const RaceConfig config = socket_config();
  SocketTransport transport(100);
  RaceCoordinator coordinator(transport, 100, config);
  ChildReaper children;
  for (NodeId node = 1; node <= 2; ++node) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) worker_process(node, transport.port(), config);
    children.pids.push_back(pid);
  }
  auto pump = [&](const std::function<bool()>& pred, int budget_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(budget_ms);
    while (!pred()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      transport.run_until(transport.now() + vt_ms(2));
    }
    return true;
  };
  ASSERT_TRUE(pump([&] { return coordinator.joined() == 2; }, 5000));
  coordinator.start({3000, 1500});
  ASSERT_TRUE(pump([&] { return coordinator.done(); }, 20000));
  EXPECT_TRUE(coordinator.outcome().all_completed) << inj.log_string();
}

}  // namespace
}  // namespace mw
