// Timeout-path coverage across backends: when every child hangs, alt_wait's
// deadline must still fire and select the failure alternative — "choose a
// value clearly unacceptable to the application" (§2.2) only works if a
// wedged child cannot wedge the parent.
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>

#include "core/alt.hpp"
#include "core/alt_context.hpp"
#include "core/alt_posix.hpp"
#include "core/runtime.hpp"

namespace mw {
namespace {

// `workers` sizes kPool's worker pool; kVirtual ignores it.
Runtime make_runtime(AltBackend backend, std::size_t workers = 0) {
  RuntimeConfig cfg;
  cfg.backend = backend;
  cfg.pool.workers = workers;
  return Runtime(cfg);
}

TEST(AltTimeoutVirtual, AllHungSelectsFailureAtDeadline) {
  Runtime rt = make_runtime(AltBackend::kVirtual);
  World root = rt.make_root();
  const AltOutcome out = AltBlock(rt, root)
                             .alt("h1", [](AltContext& ctx) { ctx.hang(); })
                             .alt("h2", [](AltContext& ctx) { ctx.hang(); })
                             .timeout(vt_ms(50))
                             .run();
  EXPECT_TRUE(out.failed);
  EXPECT_EQ(out.failure, AltFailure::kTimeout);
  EXPECT_GE(out.elapsed, vt_ms(50));
  for (const AltReport& r : out.alts)
    EXPECT_EQ(rt.processes().status(r.pid), ProcStatus::kEliminated);
}

TEST(AltTimeoutVirtual, HungSiblingDoesNotDelayWinner) {
  Runtime rt = make_runtime(AltBackend::kVirtual);
  World root = rt.make_root();
  const AltOutcome out =
      AltBlock(rt, root)
          .alt("worker", [](AltContext& ctx) { ctx.work(vt_ms(5)); })
          .alt("hanger", [](AltContext& ctx) { ctx.hang(); })
          .timeout(vt_ms(100))
          .run();
  ASSERT_FALSE(out.failed);
  EXPECT_EQ(out.winner_name, "worker");
  EXPECT_LT(out.elapsed, vt_ms(100));
}

TEST(AltTimeoutVirtual, InfiniteTimeoutWithAllHungStillReturns) {
  // No deadline: the hung tasks are modelled with a finite (huge) duration,
  // so the block still resolves — as a failure — instead of wedging.
  Runtime rt = make_runtime(AltBackend::kVirtual);
  World root = rt.make_root();
  const AltOutcome out = AltBlock(rt, root)
                             .alt("h", [](AltContext& ctx) { ctx.hang(); })
                             .run();
  EXPECT_TRUE(out.failed);
}

TEST(AltTimeoutVirtual, MixOfHangAndFailTimesOut) {
  // The failer aborts early; the hanger outlives the deadline: the parent
  // must not report kAllFailed (a child was still nominally running).
  Runtime rt = make_runtime(AltBackend::kVirtual);
  World root = rt.make_root();
  const AltOutcome out =
      AltBlock(rt, root)
          .alt("failer", [](AltContext& ctx) { ctx.fail("nope"); })
          .alt("hanger", [](AltContext& ctx) { ctx.hang(); })
          .timeout(vt_ms(50))
          .run();
  EXPECT_TRUE(out.failed);
  EXPECT_EQ(out.failure, AltFailure::kTimeout);
}

TEST(AltTimeoutPool, AllHungSelectsFailureAtDeadline) {
  Runtime rt = make_runtime(AltBackend::kPool, 2);
  World root = rt.make_root();
  const AltOutcome out = AltBlock(rt, root)
                             .alt("h1", [](AltContext& ctx) { ctx.hang(); })
                             .alt("h2", [](AltContext& ctx) { ctx.hang(); })
                             .timeout(vt_ms(200))  // µs of wall time
                             .run();
  EXPECT_TRUE(out.failed);
  EXPECT_EQ(out.failure, AltFailure::kTimeout);
  // The hung children were eliminated; the block returned (we are here),
  // so alt_wait did not wedge.
  for (const AltReport& r : out.alts)
    EXPECT_TRUE(is_terminal(rt.processes().status(r.pid)));
}

TEST(AltTimeoutPool, HungSiblingIsEliminatedByWinner) {
  Runtime rt = make_runtime(AltBackend::kPool, 2);
  World root = rt.make_root();
  const AltOutcome out =
      AltBlock(rt, root)
          .alt("worker",
               [](AltContext& ctx) {
                 ctx.sleep_for(vt_ms(2));
                 ctx.set_result_string("w");
               })
          .alt("hanger", [](AltContext& ctx) { ctx.hang(); })
          .timeout(vt_sec(10))
          .run();
  ASSERT_FALSE(out.failed);
  EXPECT_EQ(out.winner_name, "worker");
}

TEST(AltTimeoutPool, BlockedWorkerTimesOutInsteadOfWedging) {
  // One worker: the hanging alternative is taken first and holds it, so
  // the winner queued behind it never runs. The block's timeout still
  // fires — kTimeout, not a wedge. Alternatives that must all run at once
  // whatever the worker count belong on PosixAltBlock.
  Runtime rt = make_runtime(AltBackend::kPool, 1);
  World root = rt.make_root();
  const auto start = std::chrono::steady_clock::now();
  const AltOutcome out =
      AltBlock(rt, root)
          .alt("hanger", [](AltContext& ctx) { ctx.hang(); })
          .alt("winner", [](AltContext& ctx) { ctx.set_result_string("w"); })
          .timeout(vt_ms(300))  // µs of wall time
          .run();
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(out.failed);
  EXPECT_EQ(out.failure, AltFailure::kTimeout);
  for (const AltReport& r : out.alts)
    EXPECT_TRUE(is_terminal(rt.processes().status(r.pid)));
  EXPECT_LT(waited, std::chrono::milliseconds(600));
}

TEST(AltTimeoutPosix, SpinningChildrenCannotOutliveTheDeadline) {
  PosixAltBlock block;
  switch (block.alt_spawn(2)) {
    case 0: {
      const auto winner = block.parent_wait(/*timeout_us=*/150'000);
      EXPECT_FALSE(winner.has_value());  // failure alternative selected
      break;
    }
    case 1:
    case 2:
      for (;;) ::usleep(10'000);  // hang: never sync, never abort
  }
}

}  // namespace
}  // namespace mw
