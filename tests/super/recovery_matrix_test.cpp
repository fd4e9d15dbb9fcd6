// The recovery fault matrix (PR 3): seeded fault schedules drive supervised
// tasks through crash restarts, hang watchdog kills, Transaction::try_commit
// failures with in-step retries, gated effects, and a distributed race
// (transport_race over a SimTransport) whose workers the seed may crash —
// all in one run. The contract for every seed in the sweep:
//
//   * every supervised task ends ok or quarantined (the supervisor never
//     wedges, and never reports success with wrong state);
//   * sink state is consistent: replayed transaction commits are idempotent
//     and gated effects fire exactly once;
//   * the race completes with every accumulator equal to race_reference,
//     and an alternative that failed over resumed from shipped work;
//   * the RuntimeAuditor finds zero orphans, zero unresolved splits, zero
//     leaked pages;
//   * the same seed replays to the identical schedule digest and outcome.
//
// The sweep is env-overridable so CI can shard it:
//   MW_FAULT_SEED_BASE (default 1), MW_FAULT_SEED_COUNT (default 8).
// A failing seed prints its digest and full fired-fault log — the replay
// handle is the seed itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "../dist/sim_race_cluster.hpp"
#include "core/runtime_auditor.hpp"
#include "fault/fault.hpp"
#include "io/source_gate.hpp"
#include "io/transaction.hpp"
#include "super/supervisor.hpp"

namespace mw {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  return v ? std::strtoull(v, nullptr, 10) : fallback;
}

struct MatrixOutcome {
  std::uint64_t digest = 0;
  std::string log;
  bool crashy_ok = false, hangy_ok = false, txn_ok = false;
  bool crashy_quarantined = false, txn_quarantined = false;
  std::size_t total_restarts = 0;
  std::uint32_t store_value = 0;
  std::uint64_t gate_executed = 0, gate_dropped = 0;
  std::uint64_t effects_emitted = 0;
  bool race_completed = false;
  std::size_t race_kills = 0, race_failovers = 0;
  std::size_t race_bytes_shipped = 0;
  std::vector<std::uint64_t> race_start_steps;
  AuditReport audit;
};

MatrixOutcome run_matrix(std::uint64_t seed) {
  MatrixOutcome out;
  FaultInjector inj(seed);
  inj.arm("rmx.crash",
          FaultSpec::with_probability(FaultKind::kCrashException, 0.03)
              .limit(4));
  inj.arm("rmx.hang",
          FaultSpec::with_probability(FaultKind::kHang, 0.02).limit(2));
  inj.arm("rmx.txncrash",
          FaultSpec::with_probability(FaultKind::kCrashException, 0.04)
              .limit(3));
  inj.arm("txn.commit",
          FaultSpec::with_probability(FaultKind::kFailAlternative, 0.3)
              .limit(10));
  inj.arm("remote.node_crash",
          FaultSpec::with_probability(FaultKind::kNodeCrash, 0.5).limit(2));
  FaultScope scope(inj);

  RuntimeAuditor auditor;  // page baseline before any system state
  ProcessTable table;
  SourceGate gate(table, GatePolicy::kDefer);
  const Pid sentinel = table.create(kNoPid, 0, "rmx-driver");
  table.set_status(sentinel, ProcStatus::kRunning);
  PredicateSet preds;
  preds.assume_completes(sentinel);

  CheckpointSchedule sched;
  sched.interval = vt_us(500);

  // 1. A crash-prone counting task with incremental checkpoints.
  {
    TaskSpec t;
    t.name = "crashy";
    t.total_steps = 120;
    t.fault_point = "rmx.crash";
    t.step = [](SuperCtx& c) {
      c.space().store<std::uint32_t>(
          0, c.space().load<std::uint32_t>(0) + 1);
      c.space().store<std::uint32_t>(256 * (1 + c.step() % 6),
                                     static_cast<std::uint32_t>(c.step()));
    };
    Supervisor sup(RestartPolicy{}, sched);
    sup.attach(table);
    const SupervisedResult r = sup.run(t);
    out.crashy_ok = r.ok;
    out.crashy_quarantined = r.quarantined;
    out.total_restarts += r.restarts;
    if (r.ok) {
      EXPECT_EQ(r.state.load<std::uint32_t>(0), 120u);
    }
    EXPECT_TRUE(r.ok || r.quarantined);
  }

  // 2. A hang-prone task under a tight deadline watchdog.
  {
    TaskSpec t;
    t.name = "hangy";
    t.total_steps = 40;
    t.fault_point = "rmx.hang";
    t.step = [](SuperCtx& c) {
      c.space().store<std::uint32_t>(0,
                                     static_cast<std::uint32_t>(c.step()));
    };
    RestartPolicy policy;
    policy.attempt_deadline = vt_ms(6);
    Supervisor sup(policy, sched);
    sup.attach(table);
    const SupervisedResult r = sup.run(t);
    out.hangy_ok = r.ok;
    out.total_restarts += r.restarts;
    EXPECT_TRUE(r.ok || r.quarantined);
  }

  // 3. Transaction commits interleaved with supervised restarts: each step
  // publishes its counter through try_commit (retrying injected aborts) and
  // emits a gated effect. Replayed steps after a restart re-commit the same
  // value — idempotent — and their effects are suppressed by the ledger.
  std::vector<std::uint32_t> committed_effects;
  {
    BackingStore store(256);  // scoped: its pages must not outlive the audit
    const FileId file = store.create("rmx", 4);
    TaskSpec t;
    t.name = "txn";
    t.total_steps = 60;
    t.fault_point = "rmx.txncrash";
    t.step = [&store, file, &committed_effects](SuperCtx& c) {
      const auto v = static_cast<std::uint32_t>(c.step() + 1);
      for (;;) {  // bounded: the txn.commit arm has a fire limit
        Transaction txn(store, file);
        txn.store<std::uint32_t>(0, v);
        if (txn.try_commit()) break;
      }
      c.effect([&committed_effects, v] { committed_effects.push_back(v); });
    };
    Supervisor sup(RestartPolicy{}, sched);
    sup.attach(table);
    sup.attach_gate(gate, preds);
    const SupervisedResult r = sup.run(t);
    out.txn_ok = r.ok;
    out.txn_quarantined = r.quarantined;
    out.total_restarts += r.restarts;
    out.effects_emitted = r.effects_emitted;
    EXPECT_TRUE(r.ok || r.quarantined);
    if (r.ok) {
      EXPECT_EQ(store.load<std::uint32_t>(file, 0), 60u);
      // The sync released exactly one effect per step, in order.
      EXPECT_EQ(committed_effects.size(), 60u);
      for (std::size_t k = 0; k < committed_effects.size(); ++k)
        EXPECT_EQ(committed_effects[k], k + 1);
    } else {
      EXPECT_TRUE(committed_effects.empty());  // quarantine drops intents
    }
  }
  out.gate_executed = gate.executed();
  out.gate_dropped = gate.dropped();
  EXPECT_EQ(gate.deferred_pending(), 0u);

  // 4. The distributed race rides the same schedule. The seeded
  // "remote.node_crash" point decides, per alternative, whether its worker
  // dies once a delta has shipped; two standbys take the failovers.
  {
    RaceConfig config = sim_race_config();
    config.seed = seed;
    config.max_failovers = 2;
    SimRaceCluster c(5, config, LinkModel{}, seed);
    const std::vector<std::uint64_t> steps{2000, 1000, 3000};
    c.coordinator.start(steps);
    for (std::uint64_t alt = 0; alt < steps.size(); ++alt) {
      if (!MW_FAULT_POINT("remote.node_crash", c.transport.now())) continue;
      EXPECT_TRUE(c.pump_until(
          [&] { return c.coordinator.chain_length(alt) >= 2; }))
          << "seed=" << seed;
      c.worker(c.coordinator.workers()[alt]).kill();
      ++out.race_kills;
    }
    out.race_completed = c.pump_until([&] { return c.coordinator.done(); });
    EXPECT_TRUE(out.race_completed) << "seed=" << seed;  // never a wedge
    if (out.race_completed) {
      const RaceOutcome& race = c.coordinator.outcome();
      EXPECT_TRUE(race.all_completed) << "seed=" << seed;
      out.race_failovers = race.failovers;
      out.race_bytes_shipped = race.bytes_shipped;
      for (std::size_t i = 0; i < steps.size(); ++i) {
        const RaceAltOutcome& alt = race.alts[i];
        EXPECT_EQ(alt.accumulator, race_reference(steps[i]))
            << "seed=" << seed << " alt=" << i;
        // A failover restored the shipped chain: work since step 0 kept.
        if (alt.failovers > 0) {
          EXPECT_GT(alt.start_step, 0u) << "seed=" << seed << " alt=" << i;
        }
        out.race_start_steps.push_back(alt.start_step);
      }
    }
  }

  // Every attempt pid the matrix created must have reached a terminal
  // status except the sentinel driver.
  for (const ProcessRecord& rec : table.snapshot()) {
    if (rec.pid != sentinel) {
      EXPECT_TRUE(is_terminal(rec.status))
          << "pid " << rec.pid << " (" << rec.label << ")";
    }
  }
  table.set_status(sentinel, ProcStatus::kSynced);

  out.audit = auditor.run(table);
  out.digest = inj.schedule_digest();
  out.log = inj.log_string();
  return out;
}

/// A replay must reproduce the fault schedule and every outcome.
void expect_same_outcome(const MatrixOutcome& a, const MatrixOutcome& b,
                         std::uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.crashy_ok, b.crashy_ok);
  EXPECT_EQ(a.hangy_ok, b.hangy_ok);
  EXPECT_EQ(a.txn_ok, b.txn_ok);
  EXPECT_EQ(a.total_restarts, b.total_restarts);
  EXPECT_EQ(a.gate_executed, b.gate_executed);
  EXPECT_EQ(a.race_kills, b.race_kills);
  EXPECT_EQ(a.race_failovers, b.race_failovers);
  EXPECT_EQ(a.race_bytes_shipped, b.race_bytes_shipped);
  EXPECT_EQ(a.race_start_steps, b.race_start_steps);
}

TEST(RecoveryMatrix, SweepEndsCleanForEverySeed) {
  const std::uint64_t base = env_u64("MW_FAULT_SEED_BASE", 1);
  const std::uint64_t count = env_u64("MW_FAULT_SEED_COUNT", 8);
  std::size_t restarts_seen = 0, failovers_seen = 0;
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    const MatrixOutcome r = run_matrix(seed);
    restarts_seen += r.total_restarts;
    failovers_seen += r.race_failovers;
    EXPECT_TRUE(r.audit.clean())
        << "seed=" << seed << " digest=" << r.digest << "\n"
        << r.audit.to_string() << "\n" << r.log;
    EXPECT_EQ(r.audit.orphan_processes.size(), 0u) << "seed=" << seed;
    EXPECT_EQ(r.audit.unresolved_splits.size(), 0u) << "seed=" << seed;
    EXPECT_EQ(r.audit.leaked_pages, 0) << "seed=" << seed;
    expect_same_outcome(r, run_matrix(seed), seed);
  }
  // The sweep is vacuous if no fault ever forced a recovery, and the race
  // half of it is vacuous if no seeded crash ever forced a failover.
  EXPECT_GT(restarts_seen + failovers_seen, 0u);
  EXPECT_GT(failovers_seen, 0u);
}

TEST(RecoveryMatrix, SeedReplaysToIdenticalScheduleAndOutcome) {
  const std::uint64_t seed = env_u64("MW_FAULT_SEED_BASE", 1);
  expect_same_outcome(run_matrix(seed), run_matrix(seed), seed);
}

TEST(RecoveryMatrix, DifferentSeedsProduceDifferentSchedules) {
  EXPECT_NE(run_matrix(101).digest, run_matrix(202).digest);
}

}  // namespace
}  // namespace mw
