// Unit tests for the work-stealing speculation scheduler and the kPool
// backend built on it: priority order, queued-task revocation, bounded
// admission and helping waits.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/alt.hpp"
#include "core/alt_context.hpp"
#include "core/runtime.hpp"
#include "core/runtime_auditor.hpp"
#include "core/spec_scheduler.hpp"

namespace mw {
namespace {

SchedConfig det_config(std::uint64_t seed = 7) {
  SchedConfig cfg;
  cfg.deterministic_seed = seed;
  cfg.workers = 2;
  return cfg;
}

TEST(SpecScheduler, DeterministicDrainRunsEverySubmittedTask) {
  SpecScheduler sched(det_config());
  std::atomic<int> ran{0};
  for (int i = 0; i < 5; ++i)
    sched.submit([&] { ++ran; }, 0.0, 1, kNoPid);
  sched.drain();
  EXPECT_EQ(ran.load(), 5);
  EXPECT_EQ(sched.stats().submitted, 5u);
  EXPECT_EQ(sched.stats().executed, 5u);
}

TEST(SpecScheduler, HigherPriorityRunsFirstRegardlessOfSeed) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SpecScheduler sched(det_config(seed));
    std::vector<double> order;
    for (double p : {0.1, 0.9, 0.5})
      sched.submit([&order, p] { order.push_back(p); }, p, 1, kNoPid);
    sched.drain();
    EXPECT_EQ(order, (std::vector<double>{0.9, 0.5, 0.1})) << "seed=" << seed;
  }
}

TEST(SpecScheduler, RevokedTaskNeverRunsAndSkipCallbackFiresOnce) {
  SpecScheduler sched(det_config());
  std::atomic<int> ran{0};
  std::atomic<int> skipped{0};
  SchedTaskRef keep = sched.submit([&] { ++ran; }, 0.0, 1, kNoPid);
  SchedTaskRef drop = sched.submit([&] { ++ran; }, 0.0, 1, kNoPid,
                                   [&](SchedTask&) { ++skipped; });
  EXPECT_TRUE(sched.revoke(drop));
  EXPECT_FALSE(sched.revoke(drop));  // second attempt lost: already terminal
  sched.drain();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(skipped.load(), 1);
  EXPECT_EQ(keep->state(), SchedTask::State::kDone);
  EXPECT_EQ(drop->state(), SchedTask::State::kRevoked);
  EXPECT_TRUE(drop->never_ran());
  EXPECT_EQ(sched.stats().revoked, 1u);
  EXPECT_EQ(sched.stats().executed, 1u);
}

TEST(SpecScheduler, RevokeAfterExecutionFails) {
  SpecScheduler sched(det_config());
  SchedTaskRef t = sched.submit([] {}, 0.0, 1, kNoPid);
  sched.drain();
  EXPECT_EQ(t->state(), SchedTask::State::kDone);
  EXPECT_FALSE(sched.revoke(t));
}

TEST(SpecScheduler, DeterministicAdmissionRejectsOverBudgetImmediately) {
  SchedConfig cfg = det_config();
  cfg.max_live_worlds = 4;
  SpecScheduler sched(cfg);
  EXPECT_TRUE(sched.admit(3, kNoPid, 1));
  EXPECT_EQ(sched.live_worlds(), 3u);
  // Nothing can release capacity in single-threaded mode: defer resolves
  // to an immediate reject.
  EXPECT_FALSE(sched.admit(2, kNoPid, 2));
  EXPECT_EQ(sched.stats().admission_deferred, 1u);
  EXPECT_EQ(sched.stats().admission_rejected, 1u);
  sched.release(3);
  EXPECT_TRUE(sched.admit(2, kNoPid, 3));
  sched.release(2);
  EXPECT_EQ(sched.live_worlds(), 0u);
}

TEST(SpecScheduler, UnboundedAdmissionAlwaysAdmits) {
  SpecScheduler sched(det_config());
  EXPECT_TRUE(sched.admit(1000, kNoPid, 1));
  sched.release(1000);
}

TEST(SpecScheduler, ShouldHelpOnlyInDeterministicModeOrOnWorkers) {
  SpecScheduler det(det_config());
  EXPECT_TRUE(det.should_help());  // single-threaded: waiting would wedge

  SchedConfig threaded;
  threaded.workers = 1;
  SpecScheduler pool(threaded);
  EXPECT_FALSE(pool.should_help());  // external thread: block on the cv
}

TEST(SpecScheduler, ThreadedWorkersDrainTheInbox) {
  SchedConfig cfg;
  cfg.workers = 2;
  SpecScheduler sched(cfg);
  std::atomic<int> ran{0};
  std::vector<SchedTaskRef> tasks;
  for (int i = 0; i < 64; ++i)
    tasks.push_back(sched.submit([&] { ++ran; }, 0.0, 1, kNoPid));
  for (const SchedTaskRef& t : tasks) {
    while (t->state() != SchedTask::State::kDone)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  EXPECT_EQ(ran.load(), 64);
  EXPECT_EQ(sched.stats().executed, 64u);
  // External submission means every execution went through the steal path.
  EXPECT_EQ(sched.stats().stolen, 64u);
}

// Idle workers sleep on work_cv_ in slices of this length.
constexpr auto kIdleSlice = std::chrono::milliseconds(10);

// Wake-ups that took a whole idle slice or longer — from submit() to the
// task body's first instruction — over `trips` round trips through a pool
// with one worker, submitted from an external thread (which does not help
// in threaded mode), so every trip needs the idle worker woken.
int slice_long_wake_ups(int trips) {
  SchedConfig cfg;
  cfg.workers = 1;
  SpecScheduler sched(cfg);
  EXPECT_FALSE(sched.should_help());
  using Clock = std::chrono::steady_clock;
  int slow = 0;
  for (int i = 0; i < trips; ++i) {
    std::atomic<bool> done{false};
    Clock::time_point ran;
    const Clock::time_point start = Clock::now();
    sched.submit(
        [&] {
          ran = Clock::now();
          done.store(true, std::memory_order_release);
        },
        0.0, 1, kNoPid);
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
    if (ran - start >= kIdleSlice) ++slow;
  }
  return slow;
}

// Every submit must wake an idle worker. submit() has to pass through
// work_mu_ before it notifies: otherwise a worker that has just found its
// wait predicate false misses the notify and sleeps out a whole slice with
// the task queued. Such a loss recurs within a run (up to 50 of 20 000
// wake-ups on a loaded 4-vCPU machine), while a shared host that leaves a
// woken thread off-CPU for a slice does so once in a while and in bursts,
// so one slice-long wake-up is tolerated per attempt and a failing attempt
// is measured twice more.
TEST(SpecScheduler, SubmitNeverLosesAWorkerWakeUp) {
  int slow = slice_long_wake_ups(20'000);
  for (int retry = 0; retry < 2 && slow > 1; ++retry)
    slow = std::min(slow, slice_long_wake_ups(20'000));
  EXPECT_LE(slow, 1) << "wake-ups that slept out a whole idle slice";
}

TEST(SpecScheduler, ThreadedAdmissionWaitsForRelease) {
  SchedConfig cfg;
  cfg.workers = 1;
  cfg.max_live_worlds = 2;
  cfg.admission_wait = 2'000'000;  // generous: the release arrives first
  SpecScheduler sched(cfg);
  ASSERT_TRUE(sched.admit(2, kNoPid, 1));
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sched.release(2);
  });
  EXPECT_TRUE(sched.admit(1, kNoPid, 2));  // blocks until the release
  releaser.join();
  EXPECT_GE(sched.stats().admission_deferred, 1u);
  sched.release(1);
}

TEST(SpecScheduler, ThreadedAdmissionRejectsAtDeadline) {
  SchedConfig cfg;
  cfg.workers = 1;
  cfg.max_live_worlds = 1;
  cfg.admission_wait = 2'000;  // 2 ms: nobody will release
  SpecScheduler sched(cfg);
  ASSERT_TRUE(sched.admit(1, kNoPid, 1));
  EXPECT_FALSE(sched.admit(1, kNoPid, 2));
  EXPECT_EQ(sched.stats().admission_rejected, 1u);
  sched.release(1);
}

// ---- kPool backend over the scheduler --------------------------------

RuntimeConfig pool_config(std::uint64_t det_seed) {
  RuntimeConfig cfg;
  cfg.backend = AltBackend::kPool;
  cfg.page_size = 256;
  cfg.num_pages = 16;
  cfg.pool.deterministic_seed = det_seed;
  cfg.pool.workers = 2;
  return cfg;
}

TEST(AltPool, UniqueWinnerCommitsIntoParent) {
  Runtime rt(pool_config(11));
  RuntimeAuditor auditor;
  World root = rt.make_root("pool");
  auditor.add_world(root);
  const AltOutcome out =
      AltBlock(rt, root)
          .alt("loser-a", [](AltContext& ctx) { ctx.fail("no"); })
          .alt("winner",
               [](AltContext& ctx) {
                 ctx.space().store<int>(0, 424242);
                 ctx.set_result_string("w");
               })
          .alt("loser-b", [](AltContext& ctx) { ctx.fail("no"); })
          .run();
  ASSERT_FALSE(out.failed);
  EXPECT_EQ(out.winner_name, "winner");
  EXPECT_EQ(root.space().load<int>(0), 424242);
  EXPECT_EQ(rt.stats().blocks_won, 1u);
  const AuditReport audit = auditor.run(rt.processes());
  EXPECT_TRUE(audit.clean()) << audit.to_string();
}

TEST(AltPool, QueuedSiblingsAreRevokedWithZeroCopiedPages) {
  // The high-priority winner runs first (priority order is seed-invariant)
  // and syncs before any sibling is taken; the pruning pass revokes both
  // while still queued — their bodies never run, their worlds copy nothing.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Runtime rt(pool_config(seed));
    World root = rt.make_root("prune");
    std::vector<Alternative> race;
    race.push_back({"win", nullptr,
                    [](AltContext& ctx) { ctx.space().store<int>(0, 1); },
                    nullptr, /*priority=*/1.0});
    for (int i = 0; i < 2; ++i) {
      race.push_back({"lose" + std::to_string(i), nullptr,
                      [](AltContext& ctx) {
                        ctx.space().store<int>(64, 2);  // would copy a page
                        ctx.checkpoint();
                      },
                      nullptr, /*priority=*/0.0});
    }
    const AltOutcome out = run_alternatives(rt, root, race, {});
    ASSERT_FALSE(out.failed) << "seed=" << seed;
    EXPECT_EQ(out.winner_name, "win");
    for (std::size_t i = 1; i <= 2; ++i) {
      EXPECT_TRUE(out.alts[i].revoked) << "seed=" << seed << " alt=" << i;
      EXPECT_FALSE(out.alts[i].ran);
      EXPECT_EQ(out.alts[i].pages_copied, 0u);
    }
    EXPECT_EQ(rt.stats().alternatives_revoked, 2u);
  }
}

TEST(AltPool, AdmissionRejectionFailsTheBlockWithoutSpawning) {
  RuntimeConfig cfg = pool_config(3);
  cfg.pool.max_live_worlds = 2;  // a three-way race cannot fit
  Runtime rt(cfg);
  RuntimeAuditor auditor;
  World root = rt.make_root("reject");
  auditor.add_world(root);
  const AltOutcome out =
      AltBlock(rt, root)
          .alt("a", [](AltContext&) {})
          .alt("b", [](AltContext&) {})
          .alt("c", [](AltContext&) {})
          .run();
  EXPECT_TRUE(out.failed);
  EXPECT_EQ(out.failure, AltFailure::kAdmissionRejected);
  for (const AltReport& rep : out.alts) {
    EXPECT_FALSE(rep.spawned);
    EXPECT_EQ(rep.pid, kNoPid);
  }
  EXPECT_EQ(rt.scheduler().live_worlds(), 0u);
  const AuditReport audit = auditor.run(rt.processes());
  EXPECT_TRUE(audit.clean()) << audit.to_string();
}

TEST(AltPool, BudgetAdmitsSequentialRacesThatFitOneAtATime) {
  RuntimeConfig cfg = pool_config(5);
  cfg.pool.max_live_worlds = 2;
  Runtime rt(cfg);
  World root = rt.make_root("fit");
  for (int r = 0; r < 4; ++r) {
    const AltOutcome out =
        AltBlock(rt, root)
            .alt("w", [r](AltContext& ctx) { ctx.space().store<int>(0, r); })
            .alt("l", [](AltContext& ctx) { ctx.fail("no"); })
            .run();
    ASSERT_FALSE(out.failed) << "race " << r;
  }
  EXPECT_EQ(rt.scheduler().live_worlds(), 0u);
  EXPECT_EQ(root.space().load<int>(0), 3);
}

TEST(AltPool, ThreadedPoolRunsManyRacesCleanly) {
  RuntimeConfig cfg;
  cfg.backend = AltBackend::kPool;
  cfg.page_size = 256;
  cfg.num_pages = 16;
  Runtime rt(cfg);
  RuntimeAuditor auditor;
  World root = rt.make_root("pool-t");
  auditor.add_world(root);
  for (int r = 0; r < 50; ++r) {
    const AltOutcome out =
        AltBlock(rt, root)
            .alt("w",
                 [r](AltContext& ctx) { ctx.space().store<int>(0, r + 1); })
            .alt("l", [](AltContext& ctx) { ctx.fail("no"); })
            .run();
    ASSERT_FALSE(out.failed) << "race " << r;
    EXPECT_EQ(root.space().load<int>(0), r + 1);
  }
  const AuditReport audit = auditor.run(rt.processes());
  EXPECT_TRUE(audit.clean()) << audit.to_string();
}

}  // namespace
}  // namespace mw
