// Fault injection on the speculation scheduler's three points:
//
//   sched.steal  — a worker dies with a stolen task in hand: the task is
//                  terminally kFaulted (a crash, never a hang);
//   sched.revoke — a pruning pass misses: the sibling's body runs anyway
//                  and cooperative cancellation picks up the slack;
//   sched.admit  — the admission controller kills (reject) or delays
//                  (forced defer) a race before any world exists.
//
// Plus the recovery contract: a Supervisor attempt dispatched through the
// pool (always via the stolen path) that crashes is restarted from its
// checkpoint chain with the effect ledger still exactly-once.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/alt.hpp"
#include "core/alt_context.hpp"
#include "core/runtime.hpp"
#include "core/runtime_auditor.hpp"
#include "core/spec_scheduler.hpp"
#include "fault/fault.hpp"
#include "super/supervisor.hpp"

namespace mw {
namespace {

RuntimeConfig det_pool(std::uint64_t seed, double steal_prob,
                       PolicyMode policy = PolicyMode::kStatic) {
  RuntimeConfig cfg;
  cfg.backend = AltBackend::kPool;
  cfg.page_size = 256;
  cfg.num_pages = 16;
  cfg.pool.deterministic_seed = seed;
  cfg.pool.workers = 2;
  cfg.pool.deterministic_steal_prob = steal_prob;
  cfg.policy.mode = policy;
  return cfg;
}

std::vector<Alternative> two_way_race() {
  std::vector<Alternative> race;
  race.push_back({"w", nullptr,
                  [](AltContext& ctx) { ctx.space().store<int>(0, 1); },
                  nullptr, 1.0});
  race.push_back({"l", nullptr,
                  [](AltContext& ctx) { ctx.fail("scripted"); }, nullptr,
                  0.0});
  return race;
}

TEST(SchedFault, StealKillFaultsEveryStolenTask) {
  // steal_prob=1: every deterministic take goes through the steal path, so
  // an always-on kill fault terminates every sibling before its body runs.
  // The block degrades to kAllFailed — a decided failure, never a wedge.
  FaultInjector inj(1);
  inj.arm("sched.steal", FaultSpec::always(FaultKind::kCrashException));
  FaultScope scope(inj);
  Runtime rt(det_pool(4, /*steal_prob=*/1.0));
  RuntimeAuditor auditor;
  World root = rt.make_root("steal-kill");
  auditor.add_world(root);
  const AltOutcome out = run_alternatives(rt, root, two_way_race(), {});
  EXPECT_TRUE(out.failed);
  EXPECT_EQ(out.failure, AltFailure::kAllFailed);
  for (const AltReport& rep : out.alts) {
    EXPECT_FALSE(rep.ran);  // killed at the steal point, body never ran
    EXPECT_EQ(rt.processes().status(rep.pid), ProcStatus::kFailed);
  }
  EXPECT_EQ(rt.scheduler().stats().faulted, 2u);
  const AuditReport audit = auditor.run(rt.processes());
  EXPECT_TRUE(audit.clean()) << audit.to_string();
}

TEST(SchedFault, StealFaultDoesNotFireOnOwnerPops) {
  // steal_prob=0: the same armed fault never triggers because nothing is
  // stolen — the fault point really sits on the steal path only.
  FaultInjector inj(1);
  inj.arm("sched.steal", FaultSpec::always(FaultKind::kCrashException));
  FaultScope scope(inj);
  Runtime rt(det_pool(4, /*steal_prob=*/0.0));
  World root = rt.make_root("steal-quiet");
  const AltOutcome out = run_alternatives(rt, root, two_way_race(), {});
  ASSERT_FALSE(out.failed);
  EXPECT_EQ(out.winner_name, "w");
  EXPECT_EQ(inj.fires("sched.steal"), 0u);
}

TEST(SchedFault, RevokeMissDegradesToCooperativeCancellation) {
  // Every revoke misses: the loser stays queued, runs its body, and is
  // eliminated the cooperative way. Same outcome, no free elimination.
  FaultInjector inj(2);
  inj.arm("sched.revoke", FaultSpec::always(FaultKind::kFailAlternative));
  FaultScope scope(inj);
  Runtime rt(det_pool(6, 0.5));
  RuntimeAuditor auditor;
  World root = rt.make_root("revoke-miss");
  auditor.add_world(root);
  std::atomic<int> loser_ran{0};
  std::vector<Alternative> race;
  race.push_back({"w", nullptr,
                  [](AltContext& ctx) { ctx.space().store<int>(0, 1); },
                  nullptr, 1.0});
  race.push_back({"l", nullptr,
                  [&](AltContext& ctx) {
                    ++loser_ran;
                    ctx.checkpoint();  // observes the cancellation instead
                    ctx.fail("lost anyway");
                  },
                  nullptr, 0.0});
  const AltOutcome out = run_alternatives(rt, root, race, {});
  ASSERT_FALSE(out.failed);
  EXPECT_EQ(out.winner_name, "w");
  EXPECT_GT(inj.fires("sched.revoke"), 0u);
  EXPECT_EQ(loser_ran.load(), 1);          // the miss let the body run
  EXPECT_FALSE(out.alts[1].revoked);       // no free elimination claimed
  EXPECT_EQ(rt.scheduler().stats().revoked, 0u);
  const AuditReport audit = auditor.run(rt.processes());
  EXPECT_TRUE(audit.clean()) << audit.to_string();
}

TEST(SchedFault, AdmitKillRejectsTheRaceBeforeAnyWorldExists) {
  FaultInjector inj(3);
  inj.arm("sched.admit", FaultSpec::always(FaultKind::kFailAlternative));
  FaultScope scope(inj);
  Runtime rt(det_pool(4, 0.5));
  RuntimeAuditor auditor;
  World root = rt.make_root("admit-kill");
  auditor.add_world(root);
  const AltOutcome out = run_alternatives(rt, root, two_way_race(), {});
  EXPECT_TRUE(out.failed);
  EXPECT_EQ(out.failure, AltFailure::kAdmissionRejected);
  for (const AltReport& rep : out.alts) EXPECT_FALSE(rep.spawned);
  EXPECT_EQ(rt.scheduler().live_worlds(), 0u);
  const AuditReport audit = auditor.run(rt.processes());
  EXPECT_TRUE(audit.clean()) << audit.to_string();
}

TEST(SchedFault, AdmitDelayForcesADeferThenAdmits) {
  FaultInjector inj(4);
  inj.arm("sched.admit",
          FaultSpec::once(FaultKind::kDelay, 0).delayed(vt_us(100)));
  FaultScope scope(inj);
  Runtime rt(det_pool(4, 0.5));
  World root = rt.make_root("admit-delay");
  const AltOutcome out = run_alternatives(rt, root, two_way_race(), {});
  ASSERT_FALSE(out.failed);  // deferred, then admitted: semantics unchanged
  EXPECT_EQ(out.winner_name, "w");
  EXPECT_EQ(rt.scheduler().stats().admission_deferred, 1u);
  EXPECT_EQ(rt.scheduler().stats().admission_rejected, 0u);
}

// ---- Adaptive-policy rows: the same fault points with the closed-loop
// policy engine steering submission order. The faults must stay contained
// and the seed must still replay. --------------------------------------

TEST(SchedFault, AdmitKillStillRejectsWithAdaptivePolicy) {
  // The admission fault fires before the policy plans the race: adaptive
  // mode must not resurrect a rejected race or leak a world.
  FaultInjector inj(3);
  inj.arm("sched.admit", FaultSpec::always(FaultKind::kFailAlternative));
  FaultScope scope(inj);
  Runtime rt(det_pool(4, 0.5, PolicyMode::kAdaptive));
  RuntimeAuditor auditor;
  World root = rt.make_root("admit-kill-adaptive");
  auditor.add_world(root);
  const AltOutcome out = run_alternatives(rt, root, two_way_race(), {});
  EXPECT_TRUE(out.failed);
  EXPECT_EQ(out.failure, AltFailure::kAdmissionRejected);
  for (const AltReport& rep : out.alts) EXPECT_FALSE(rep.spawned);
  EXPECT_EQ(rt.scheduler().live_worlds(), 0u);
  const AuditReport audit = auditor.run(rt.processes());
  EXPECT_TRUE(audit.clean()) << audit.to_string();
}

TEST(SchedFault, AdaptiveRevokeMissStaysExactlyOnceAndClean) {
  // Revoke misses with the adaptive planner reordering submissions: the
  // loser still runs at most once and cancels cooperatively.
  FaultInjector inj(2);
  inj.arm("sched.revoke", FaultSpec::always(FaultKind::kFailAlternative));
  FaultScope scope(inj);
  Runtime rt(det_pool(6, 0.5, PolicyMode::kAdaptive));
  RuntimeAuditor auditor;
  World root = rt.make_root("revoke-miss-adaptive");
  auditor.add_world(root);
  std::atomic<int> loser_ran{0};
  for (int r = 0; r < 8; ++r) {
    std::vector<Alternative> race;
    race.push_back({"w", nullptr,
                    [](AltContext& ctx) { ctx.space().store<int>(0, 1); },
                    nullptr, 1.0});
    race.push_back({"l", nullptr,
                    [&](AltContext& ctx) {
                      ++loser_ran;
                      ctx.checkpoint();
                      ctx.fail("lost anyway");
                    },
                    nullptr, 0.0});
    const AltOutcome out = run_alternatives(rt, root, race, {});
    ASSERT_FALSE(out.failed) << "race " << r;
    EXPECT_EQ(out.winner_name, "w") << "race " << r;
  }
  EXPECT_LE(loser_ran.load(), 8);  // each loser body at most once
  EXPECT_EQ(rt.scheduler().stats().revoked, 0u);
  const AuditReport audit = auditor.run(rt.processes());
  EXPECT_TRUE(audit.clean()) << audit.to_string();
}

TEST(SchedFault, AdaptiveFaultScheduleReplaysPerSeed) {
  // Digest replay with the policy in the loop: the same seed drives the
  // same fault schedule to the same winners, flags, and fire counts even
  // though the adaptive planner is reordering and learning throughout.
  auto run_once = [](std::uint64_t seed) {
    FaultInjector inj(seed);
    inj.arm("sched.steal",
            FaultSpec::with_probability(FaultKind::kCrashException, 0.2));
    FaultScope scope(inj);
    Runtime rt(det_pool(seed, 0.5, PolicyMode::kAdaptive));
    World root = rt.make_root("adaptive-replay");
    std::string fp;
    for (int r = 0; r < 10; ++r) {
      const AltOutcome out = run_alternatives(rt, root, two_way_race(), {});
      fp += out.failed ? 'F' : 'k';
      fp += out.winner ? std::to_string(*out.winner) : "x";
      for (const AltReport& a : out.alts)
        fp += a.ran ? 'r' : (a.revoked ? 'v' : '.');
      fp += '/';
    }
    fp += "fires=" + std::to_string(inj.fires("sched.steal"));
    fp += " digest=" + std::to_string(inj.schedule_digest());
    return fp;
  };
  const std::uint64_t base = []() {
    const char* v = std::getenv("MW_FAULT_SEED_BASE");
    return v ? std::strtoull(v, nullptr, 10) : 1;
  }();
  const std::uint64_t count = []() {
    const char* v = std::getenv("MW_FAULT_SEED_COUNT");
    return v ? std::strtoull(v, nullptr, 10) : 4;
  }();
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    EXPECT_EQ(run_once(seed), run_once(seed)) << "seed=" << seed;
  }
}

// ---- Supervisor recovery through the pool ----------------------------

TEST(SchedFault, SupervisorRecoversAttemptKilledAtTheStealPoint) {
  // run_on dispatches the attempt through the shared inbox, so the worker
  // always steals it; a once() kill fault takes down the first attempt
  // before a single step runs. The supervisor must see a crash failure and
  // restart — and the restarted attempt emits every effect exactly once.
  FaultInjector inj(5);
  inj.arm("sched.steal", FaultSpec::once(FaultKind::kCrashException, 0));
  FaultScope scope(inj);

  SchedConfig pool_cfg;
  pool_cfg.workers = 1;
  SpecScheduler sched(pool_cfg);

  std::atomic<int> observed{0};
  TaskSpec task;
  task.name = "stolen";
  task.total_steps = 20;
  task.step = [&](SuperCtx& c) {
    const auto s = static_cast<std::uint32_t>(c.step());
    c.space().store<std::uint32_t>(0,
                                   c.space().load<std::uint32_t>(0) + 1);
    c.effect([&observed] { ++observed; });
    (void)s;
  };
  task.fault_point = "super.none";  // no in-step faults: only the steal kill

  Supervisor sup(RestartPolicy{}, CheckpointSchedule{});
  const SupervisedResult r = sup.run_on(sched, task);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_EQ(r.failures_crash, 1u);
  EXPECT_EQ(r.state.load<std::uint32_t>(0), 20u);
  EXPECT_EQ(observed.load(), 20);  // exactly once despite the dead attempt
  EXPECT_EQ(r.effects_emitted, 20u);
  EXPECT_EQ(r.effects_suppressed, 0u);  // attempt 1 never emitted anything
}

TEST(SchedFault, SupervisorLedgerStaysExactlyOnceAcrossPoolRestart) {
  // The crash lands *inside* the stolen attempt (step fault), so the
  // restart replays completed steps; the ledger must swallow the replayed
  // effect emissions.
  FaultInjector inj(6);
  inj.arm("super.step", FaultSpec::once(FaultKind::kCrashException, 12));
  FaultScope scope(inj);

  SchedConfig pool_cfg;
  pool_cfg.workers = 1;
  SpecScheduler sched(pool_cfg);

  std::atomic<int> observed{0};
  TaskSpec task;
  task.name = "replayed";
  task.total_steps = 20;
  task.step = [&](SuperCtx& c) {
    c.space().store<std::uint32_t>(0,
                                   c.space().load<std::uint32_t>(0) + 1);
    c.effect([&observed] { ++observed; });
  };

  Supervisor sup(RestartPolicy{}, CheckpointSchedule{});  // no checkpoints
  const SupervisedResult r = sup.run_on(sched, task);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_EQ(r.failures_crash, 1u);
  EXPECT_EQ(r.state.load<std::uint32_t>(0), 20u);
  EXPECT_EQ(observed.load(), 20);       // the observable world saw each once
  EXPECT_EQ(r.effects_emitted, 20u);
  EXPECT_EQ(r.effects_suppressed, 12u);  // the replayed prefix was swallowed
}

TEST(SchedFault, RunOnWithoutFaultsMatchesRun) {
  SchedConfig pool_cfg;
  pool_cfg.workers = 1;
  SpecScheduler sched(pool_cfg);
  TaskSpec task;
  task.total_steps = 30;
  task.step = [](SuperCtx& c) {
    c.space().store<std::uint32_t>(0, c.space().load<std::uint32_t>(0) + 2);
  };
  Supervisor sup(RestartPolicy{}, CheckpointSchedule{});
  const SupervisedResult inline_r = sup.run(task);
  const SupervisedResult pool_r = sup.run_on(sched, task);
  ASSERT_TRUE(inline_r.ok);
  ASSERT_TRUE(pool_r.ok);
  EXPECT_EQ(pool_r.attempts, 1u);
  EXPECT_EQ(pool_r.state.load<std::uint32_t>(0),
            inline_r.state.load<std::uint32_t>(0));
  EXPECT_EQ(pool_r.steps_executed, inline_r.steps_executed);
}

}  // namespace
}  // namespace mw
