// The block's semantics on the wall-clock kPool engine, with real worker
// threads. Each runtime has two workers, so the at most two alternatives
// per race that spin or block run at once whatever the host's core count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/alt.hpp"
#include "core/alt_context.hpp"
#include "core/runtime.hpp"
#include "core/runtime_auditor.hpp"
#include "core/spec_scheduler.hpp"
#include "pagestore/page.hpp"
#include "trace/trace.hpp"

namespace mw {
namespace {

RuntimeConfig pool_config() {
  RuntimeConfig cfg;
  cfg.backend = AltBackend::kPool;
  cfg.page_size = 64;
  cfg.num_pages = 64;
  cfg.pool.workers = 2;
  return cfg;
}

// Spins until `flag` is set; a body that must not sync before a sibling
// has started calls this.
void await(const std::atomic<bool>& flag) {
  while (!flag.load()) std::this_thread::yield();
}

TEST(AltPool, SingleAlternativeWins) {
  Runtime rt(pool_config());
  World root = rt.make_root();
  auto out = run_alternatives(
      rt, root,
      {Alternative{"only", nullptr,
                   [](AltContext& ctx) { ctx.space().store<int>(0, 42); },
                   nullptr}});
  EXPECT_FALSE(out.failed);
  EXPECT_EQ(out.winner, 0u);
  EXPECT_EQ(root.space().load<int>(0), 42);
}

TEST(AltPool, FirstSuccessfulSyncWins) {
  Runtime rt(pool_config());
  World root = rt.make_root();
  // One alternative finishes immediately; the other spins until cancelled.
  std::atomic<bool> slow_started{false};
  auto out = run_alternatives(
      rt, root,
      {Alternative{"quick", nullptr,
                   [](AltContext& ctx) { ctx.space().store<int>(0, 1); },
                   nullptr},
       Alternative{"spin", nullptr,
                   [&](AltContext& ctx) {
                     slow_started = true;
                     for (;;) ctx.checkpoint();  // unwinds when eliminated
                   },
                   nullptr}});
  EXPECT_FALSE(out.failed);
  EXPECT_EQ(out.winner, 0u);
  EXPECT_EQ(root.space().load<int>(0), 1);
}

TEST(AltPool, AllAbortIsFailure) {
  Runtime rt(pool_config());
  World root = rt.make_root();
  auto out = run_alternatives(
      rt, root,
      {Alternative{"a", nullptr, [](AltContext& ctx) { ctx.fail("x"); },
                   nullptr},
       Alternative{"b", nullptr,
                   [](AltContext&) { throw std::runtime_error("y"); },
                   nullptr}});
  EXPECT_TRUE(out.failed);
  EXPECT_EQ(out.failure, AltFailure::kAllFailed);
}

TEST(AltPool, TimeoutKillsSpinners) {
  Runtime rt(pool_config());
  World root = rt.make_root();
  AltOptions opts;
  opts.timeout = 50'000;  // 50 ms
  auto out = run_alternatives(
      rt, root,
      {Alternative{"spin", nullptr,
                   [](AltContext& ctx) {
                     for (;;) ctx.checkpoint();
                   },
                   nullptr}},
      opts);
  EXPECT_TRUE(out.failed);
  EXPECT_EQ(out.failure, AltFailure::kTimeout);
  EXPECT_EQ(rt.processes().status(out.alts[0].pid), ProcStatus::kEliminated);
}

TEST(AltPool, LoserWorldDiscarded) {
  Runtime rt(pool_config());
  World root = rt.make_root();
  root.space().store<int>(0, 5);
  auto out = run_alternatives(
      rt, root,
      {Alternative{"winner", nullptr, [](AltContext&) {}, nullptr},
       Alternative{"loser", nullptr,
                   [](AltContext& ctx) {
                     ctx.space().store<int>(0, 666);
                     for (;;) ctx.checkpoint();
                   },
                   nullptr}});
  EXPECT_EQ(out.winner, 0u);
  EXPECT_EQ(root.space().load<int>(0), 5);
}

TEST(AltPool, GuardAndAcceptApply) {
  Runtime rt(pool_config());
  World root = rt.make_root();
  auto out = run_alternatives(
      rt, root,
      {Alternative{"rejected-by-guard", [](const World&) { return false; },
                   [](AltContext& ctx) { ctx.space().store<int>(0, 1); },
                   nullptr},
       Alternative{"rejected-by-accept", nullptr,
                   [](AltContext& ctx) { ctx.space().store<int>(0, 2); },
                   [](const World&) { return false; }},
       Alternative{"accepted", nullptr,
                   [](AltContext& ctx) { ctx.space().store<int>(0, 3); },
                   [](const World& w) { return w.space().load<int>(0) == 3; }}});
  EXPECT_EQ(out.winner, 2u);
  EXPECT_EQ(root.space().load<int>(0), 3);
}

TEST(AltPool, ResultBytesDelivered) {
  Runtime rt(pool_config());
  World root = rt.make_root();
  auto out = run_alternatives(
      rt, root,
      {Alternative{"r", nullptr,
                   [](AltContext& ctx) { ctx.set_result_string("worlds"); },
                   nullptr}});
  EXPECT_EQ(std::string(out.result.begin(), out.result.end()), "worlds");
}

TEST(AltPool, SynchronousEliminationWaitsForLosers) {
  Runtime rt(pool_config());
  World root = rt.make_root();
  std::atomic<bool> loser_started{false};
  std::atomic<bool> loser_exited{false};
  AltOptions opts;
  opts.elimination = Elimination::kSynchronous;
  // The winner waits for the loser to start, so the loser is running (not
  // revoked while queued) when the winner syncs.
  auto out = run_alternatives(
      rt, root,
      {Alternative{"w", nullptr,
                   [&](AltContext&) { await(loser_started); }, nullptr},
       Alternative{"l", nullptr,
                   [&](AltContext& ctx) {
                     loser_started = true;
                     struct OnExit {
                       std::atomic<bool>* flag;
                       ~OnExit() { *flag = true; }
                     } guard{&loser_exited};
                     for (;;) ctx.checkpoint();
                   },
                   nullptr}},
      opts);
  EXPECT_EQ(out.winner, 0u);
  // Synchronous elimination means the loser terminated before the block
  // returned.
  EXPECT_TRUE(loser_exited.load());
}

TEST(AltPool, ManyAlternativesStress) {
  Runtime rt(pool_config());
  World root = rt.make_root();
  std::vector<Alternative> alts;
  for (int i = 0; i < 16; ++i) {
    alts.push_back(Alternative{
        "alt" + std::to_string(i), nullptr,
        [i](AltContext& ctx) {
          ctx.space().store<int>(0, i);
          if (i != 7) ctx.fail("only 7 succeeds");
        },
        nullptr});
  }
  auto out = run_alternatives(rt, root, alts);
  EXPECT_EQ(out.winner, 7u);
  EXPECT_EQ(root.space().load<int>(0), 7);
}

TEST(AltPool, StatusesAfterBlock) {
  Runtime rt(pool_config());
  World root = rt.make_root();
  // The winner waits for "f" to start, so "f" fails rather than being
  // revoked while queued.
  std::atomic<bool> f_started{false};
  auto out = run_alternatives(
      rt, root,
      {Alternative{"w", nullptr, [&](AltContext&) { await(f_started); },
                   nullptr},
       Alternative{"f", nullptr,
                   [&](AltContext& ctx) {
                     f_started = true;
                     ctx.fail("");
                   },
                   nullptr}});
  ASSERT_TRUE(out.winner.has_value());
  EXPECT_EQ(rt.processes().status(out.alts[0].pid), ProcStatus::kSynced);
  EXPECT_EQ(rt.processes().status(out.alts[1].pid), ProcStatus::kFailed);

  // A loser that never ran: one spinner holds the second worker, the other
  // stays queued until the winner syncs and revokes it.
  std::atomic<bool> spinner_started{false};
  const std::uint64_t submitted = rt.scheduler().stats().submitted;
  auto spin = [&](AltContext& ctx) {
    spinner_started = true;
    ctx.space().store<int>(0, 1);  // would copy a page
    for (;;) ctx.checkpoint();
  };
  out = run_alternatives(
      rt, root,
      {Alternative{"w",
                   nullptr,
                   [&](AltContext&) {
                     await(spinner_started);
                     while (rt.scheduler().stats().submitted < submitted + 3)
                       std::this_thread::yield();
                   },
                   nullptr, /*priority=*/1.0},
       Alternative{"s1", nullptr, spin, nullptr},
       Alternative{"s2", nullptr, spin, nullptr}});
  ASSERT_EQ(out.winner, 0u);
  int revoked = 0;
  for (std::size_t i = 1; i <= 2; ++i) {
    const AltReport& rep = out.alts[i];
    EXPECT_EQ(rt.processes().status(rep.pid), ProcStatus::kEliminated);
    if (!rep.revoked) continue;
    ++revoked;
    EXPECT_FALSE(rep.ran);
    EXPECT_EQ(rep.pages_copied, 0u);
  }
  EXPECT_EQ(revoked, 1);
}

TEST(AltPool, LosersReleaseTheirPagesBeforeTheBlockReturns) {
  // Each loser breaks K shared pages, one with whole-page (blind) writes
  // and one with partial stores; one fails, the other is cancelled. Both
  // drop their worlds on their own workers, and none of their pages may
  // outlive the block.
  constexpr std::size_t kPages = 8;
  const std::int64_t baseline = Page::live_instances();
  RuntimeAuditor auditor;
  RuntimeConfig cfg = pool_config();
  cfg.pool.workers = 3;  // winner, failer and spinner all run at once
  Runtime rt(cfg);
  World root = rt.make_root();
  auditor.add_world(root);
  const std::vector<std::uint8_t> fill(cfg.page_size, 0x11);
  for (std::size_t p = 0; p < 2 * kPages + 1; ++p)
    root.space().write(p * cfg.page_size, fill);

  std::atomic<bool> failer_done{false};
  std::atomic<bool> spinner_wrote{false};
  const std::vector<std::uint8_t> blind(cfg.page_size, 0x22);
  trace::reset();
  trace::set_enabled(true);
  auto out = run_alternatives(
      rt, root,
      {Alternative{"winner", nullptr,
                   [&](AltContext& ctx) {
                     await(failer_done);
                     await(spinner_wrote);
                     ctx.space().store<int>(0, 7);
                   },
                   nullptr},
       Alternative{"failer", nullptr,
                   [&](AltContext& ctx) {
                     for (std::size_t p = 1; p <= kPages; ++p)
                       ctx.space().write(p * cfg.page_size, blind);
                     failer_done = true;
                     ctx.fail("lose");
                   },
                   nullptr},
       Alternative{"spinner", nullptr,
                   [&](AltContext& ctx) {
                     for (std::size_t p = kPages + 1; p <= 2 * kPages; ++p)
                       ctx.space().store<int>(p * cfg.page_size, 3);
                     spinner_wrote = true;
                     for (;;) ctx.checkpoint();  // unwinds when eliminated
                   },
                   nullptr}});
  trace::set_enabled(false);
  ASSERT_EQ(out.winner, 0u);

  // Only the parent's pages are left: no loser page waits for teardown.
  std::unordered_set<const Page*> reachable;
  root.space().table().collect_pages(reachable);
  EXPECT_EQ(Page::live_instances(),
            baseline + static_cast<std::int64_t>(reachable.size()));

  EXPECT_EQ(out.alts[1].pages_copied, kPages);
  EXPECT_EQ(out.alts[2].pages_copied, kPages);
#if !defined(MW_TRACE_DISABLED)
  std::size_t ends = 0;
  for (const trace::TraceEvent& e : trace::collect()) {
    if (e.kind != trace::EventKind::kAltChildEnd) continue;
    for (const AltReport& rep : out.alts) {
      if (e.pid != rep.pid) continue;
      EXPECT_EQ(e.b, rep.pages_copied) << rep.name;
      ++ends;
    }
  }
  EXPECT_EQ(ends, 3u);
#endif
  trace::reset();

  EXPECT_EQ(rt.processes().status(out.alts[1].pid), ProcStatus::kFailed);
  EXPECT_EQ(rt.processes().status(out.alts[2].pid), ProcStatus::kEliminated);
  const AuditReport audit = auditor.run(rt.processes());
  EXPECT_TRUE(audit.clean()) << audit.to_string();
}

TEST(AltPool, ALateLoserNeverWritesInPlaceWhatADroppedSiblingRead) {
  // All three write page 129 (in leaf 2). The winner replaces leaf 2 and
  // the page in its map; "early" copies both and drops its world; "late"
  // still reaches the parent's leaf 2 and page through its copy of the
  // root, and writes the page only after the winner has synced and "early"
  // has dropped. The block commits only after every sibling has ended, so
  // the parent's map still holds both: "late" copies them instead of
  // writing in place over what "early" read (a data race, and one page
  // copy short).
  RuntimeConfig cfg = pool_config();
  cfg.num_pages = 4 * 64;  // a two-level map: a root over four leaves
  cfg.pool.workers = 3;
  Runtime rt(cfg);
  World root = rt.make_root();
  for (std::size_t p = 0; p < cfg.num_pages; ++p)
    root.space().store<int>(p * cfg.page_size, 1);
  auto store = [&](AltContext& ctx, std::size_t page, int v) {
    ctx.space().store<int>(page * cfg.page_size, v);
  };

  std::atomic<bool> early_wrote{false};
  std::atomic<bool> late_forked{false};
  std::atomic<bool> winner_done{false};
  auto out = run_alternatives(
      rt, root,
      {Alternative{"winner", nullptr,
                   [&](AltContext& ctx) {
                     await(early_wrote);
                     await(late_forked);
                     store(ctx, 129, 4);
                     winner_done = true;
                   },
                   nullptr},
       Alternative{"early", nullptr,
                   [&](AltContext& ctx) {
                     store(ctx, 129, 2);
                     early_wrote = true;
                     ctx.fail("lose");
                   },
                   nullptr},
       Alternative{"late", nullptr,
                   [&](AltContext& ctx) {
                     store(ctx, 64, 3);  // leaf 1: copies the root
                     late_forked = true;
                     await(winner_done);
                     // Long enough for the early drop.
                     std::this_thread::sleep_for(std::chrono::milliseconds(50));
                     store(ctx, 129, 3);
                     for (;;) ctx.checkpoint();  // unwinds when eliminated
                   },
                   nullptr}});
  ASSERT_EQ(out.winner, 0u);
  EXPECT_EQ(out.alts[2].pages_copied, 2u);
  for (std::size_t p = 0; p < cfg.num_pages; ++p)
    EXPECT_EQ(root.space().load<int>(p * cfg.page_size),
              p == 129 ? 4 : 1)
        << "page " << p;
}

}  // namespace
}  // namespace mw
