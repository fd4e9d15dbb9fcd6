// The block's semantics on the wall-clock kPool engine, with real worker
// threads. Each runtime has two workers, so the at most two alternatives
// per race that spin or block run at once whatever the host's core count.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/alt.hpp"
#include "core/alt_context.hpp"
#include "core/runtime.hpp"
#include "core/spec_scheduler.hpp"

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

}  // namespace
}  // namespace mw
