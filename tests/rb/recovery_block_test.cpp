#include "rb/recovery_block.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace mw {
namespace {

RuntimeConfig virtual_config() {
  RuntimeConfig cfg;
  cfg.backend = AltBackend::kVirtual;
  cfg.processors = 4;
  cfg.cost = CostModel::free();
  cfg.page_size = 64;
  cfg.num_pages = 32;
  return cfg;
}

/// The block computes an integer square root of the value at offset 0 and
/// stores it at offset 8; acceptance verifies r*r <= v < (r+1)^2.
std::function<bool(const World&)> sqrt_acceptance() {
  return [](const World& w) {
    const std::int64_t v = w.space().load<std::int64_t>(0);
    const std::int64_t r = w.space().load<std::int64_t>(8);
    return r >= 0 && r * r <= v && (r + 1) * (r + 1) > v;
  };
}

std::function<void(AltContext&)> good_sqrt(VDuration work = 10) {
  return [work](AltContext& ctx) {
    ctx.work(work);
    const std::int64_t v = ctx.space().load<std::int64_t>(0);
    std::int64_t r = 0;
    while ((r + 1) * (r + 1) <= v) ++r;
    ctx.space().store<std::int64_t>(8, r);
  };
}

std::function<void(AltContext&)> buggy_sqrt() {
  return [](AltContext& ctx) {
    ctx.work(1);
    ctx.space().store<std::int64_t>(8, -999);  // garbage: fails acceptance
  };
}

std::function<void(AltContext&)> crashing_sqrt() {
  return [](AltContext& ctx) {
    ctx.work(1);
    throw std::runtime_error("segfault stand-in");
  };
}

class RecoveryBlockTest : public ::testing::Test {
 protected:
  RecoveryBlockTest() : rt_(virtual_config()), world_(rt_.make_root()) {
    world_.space().store<std::int64_t>(0, 37);
  }
  Runtime rt_;
  World world_;
};

TEST_F(RecoveryBlockTest, PrimarySucceedsSequential) {
  RecoveryBlock rb("isqrt", sqrt_acceptance());
  rb.ensure_by("primary", good_sqrt());
  auto r = rb.run_sequential(rt_, world_);
  ASSERT_TRUE(r.succeeded);
  EXPECT_EQ(r.alternate_used, 0u);
  EXPECT_EQ(r.rejected, 0);
  EXPECT_EQ(world_.space().load<std::int64_t>(8), 6);
}

TEST_F(RecoveryBlockTest, StandbySpareTakesOverSequential) {
  RecoveryBlock rb("isqrt", sqrt_acceptance());
  rb.ensure_by("buggy", buggy_sqrt());
  rb.ensure_by("spare", good_sqrt());
  auto r = rb.run_sequential(rt_, world_);
  ASSERT_TRUE(r.succeeded);
  EXPECT_EQ(r.alternate_used, 1u);
  EXPECT_EQ(r.alternate_name, "spare");
  EXPECT_EQ(r.rejected, 1);
  EXPECT_EQ(world_.space().load<std::int64_t>(8), 6);
}

TEST_F(RecoveryBlockTest, CrashIsContainedSequential) {
  RecoveryBlock rb("isqrt", sqrt_acceptance());
  rb.ensure_by("crashes", crashing_sqrt());
  rb.ensure_by("spare", good_sqrt());
  auto r = rb.run_sequential(rt_, world_);
  ASSERT_TRUE(r.succeeded);
  EXPECT_EQ(r.alternate_used, 1u);
}

TEST_F(RecoveryBlockTest, TotalFailureLeavesWorldUntouched) {
  RecoveryBlock rb("isqrt", sqrt_acceptance());
  rb.ensure_by("bad1", buggy_sqrt());
  rb.ensure_by("bad2", crashing_sqrt());
  auto r = rb.run_sequential(rt_, world_);
  EXPECT_FALSE(r.succeeded);
  EXPECT_EQ(r.rejected, 2);
  EXPECT_EQ(world_.space().load<std::int64_t>(8), 0);  // untouched
}

TEST_F(RecoveryBlockTest, ThrowingAcceptanceRejectsEveryAlternateSequential) {
  // An ensure-clause that throws rejects the candidate like one that says
  // no: the spare is tried, and the block fails without throwing.
  RecoveryBlock rb("isqrt", [](const World&) -> bool {
    throw std::runtime_error("accept blew up");
  });
  rb.ensure_by("primary", good_sqrt());
  rb.ensure_by("spare", good_sqrt());
  RbResult r;
  ASSERT_NO_THROW(r = rb.run_sequential(rt_, world_));
  EXPECT_FALSE(r.succeeded);
  EXPECT_EQ(r.rejected, 2);
  EXPECT_EQ(world_.space().load<std::int64_t>(8), 0);  // untouched
}

TEST_F(RecoveryBlockTest, ConcurrentPrimaryWins) {
  RecoveryBlock rb("isqrt", sqrt_acceptance());
  rb.ensure_by("fast", good_sqrt(5));
  rb.ensure_by("slow", good_sqrt(500));
  auto r = rb.run_concurrent(rt_, world_);
  ASSERT_TRUE(r.succeeded);
  EXPECT_EQ(r.alternate_used, 0u);
  EXPECT_EQ(world_.space().load<std::int64_t>(8), 6);
}

TEST_F(RecoveryBlockTest, ConcurrentSpareWinsWhenPrimaryBuggy) {
  RecoveryBlock rb("isqrt", sqrt_acceptance());
  rb.ensure_by("buggy", buggy_sqrt());
  rb.ensure_by("spare", good_sqrt());
  auto r = rb.run_concurrent(rt_, world_);
  ASSERT_TRUE(r.succeeded);
  EXPECT_EQ(r.alternate_name, "spare");
  EXPECT_EQ(world_.space().load<std::int64_t>(8), 6);
}

TEST_F(RecoveryBlockTest, ConcurrentRecoveryIsCheaperThanSequential) {
  // §5: "there is no execution time penalty paid for recovery" — when the
  // primary fails, the concurrent spare has been running all along, while
  // the sequential spare starts only after the primary's failure.
  RuntimeConfig cfg = virtual_config();
  cfg.processors = 2;
  auto build = [] {
    RecoveryBlock rb("isqrt", sqrt_acceptance());
    rb.ensure_by("buggy-slow", [](AltContext& ctx) {
      ctx.work(1000);
      ctx.space().store<std::int64_t>(8, -1);
    });
    rb.ensure_by("spare", good_sqrt(1000));
    return rb;
  };
  Runtime rt1(cfg);
  World w1 = rt1.make_root();
  w1.space().store<std::int64_t>(0, 37);
  auto seq = build().run_sequential(rt1, w1);

  Runtime rt2(cfg);
  World w2 = rt2.make_root();
  w2.space().store<std::int64_t>(0, 37);
  auto conc = build().run_concurrent(rt2, w2);

  ASSERT_TRUE(seq.succeeded);
  ASSERT_TRUE(conc.succeeded);
  EXPECT_LT(conc.elapsed, seq.elapsed);
}

TEST_F(RecoveryBlockTest, ConcurrentAllFail) {
  RecoveryBlock rb("isqrt", sqrt_acceptance());
  rb.ensure_by("bad1", buggy_sqrt());
  rb.ensure_by("bad2", crashing_sqrt());
  auto r = rb.run_concurrent(rt_, world_);
  EXPECT_FALSE(r.succeeded);
  EXPECT_EQ(world_.space().load<std::int64_t>(8), 0);
}

TEST_F(RecoveryBlockTest, NestedRecoveryBlocks) {
  // An alternate that internally runs its own recovery block.
  RecoveryBlock inner("inner", sqrt_acceptance());
  inner.ensure_by("inner-buggy", buggy_sqrt());
  inner.ensure_by("inner-good", good_sqrt());

  RecoveryBlock outer("outer", sqrt_acceptance());
  outer.ensure_by("delegates", [&](AltContext& ctx) {
    auto r = inner.run_sequential(rt_, ctx.world());
    ctx.work(r.elapsed);
    if (!r.succeeded) ctx.fail("inner block failed");
  });
  auto r = outer.run_sequential(rt_, world_);
  ASSERT_TRUE(r.succeeded);
  EXPECT_EQ(world_.space().load<std::int64_t>(8), 6);
}

TEST(FaultPlan, FailFirstN) {
  FaultPlan p = FaultPlan::fail_first(2);
  EXPECT_TRUE(p.next_fails());
  EXPECT_TRUE(p.next_fails());
  EXPECT_FALSE(p.next_fails());
  EXPECT_EQ(p.invocations(), 3);
}

TEST(FaultPlan, AlwaysAndNone) {
  FaultPlan a = FaultPlan::always();
  FaultPlan n = FaultPlan::none();
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(a.next_fails());
    EXPECT_FALSE(n.next_fails());
  }
}

TEST(FaultPlan, Periodic) {
  FaultPlan p = FaultPlan::periodic(3);
  std::vector<bool> pattern;
  for (int i = 0; i < 6; ++i) pattern.push_back(p.next_fails());
  EXPECT_EQ(pattern, (std::vector<bool>{true, false, false, true, false,
                                        false}));
}

TEST(FaultPlan, TransientFaultRecoversWithRetryBlock) {
  // A transiently-failing primary modeled with FaultPlan: first run fails,
  // second block invocation succeeds.
  RuntimeConfig cfg = virtual_config();
  Runtime rt(cfg);
  World world = rt.make_root();
  world.space().store<std::int64_t>(0, 81);
  auto plan = std::make_shared<FaultPlan>(FaultPlan::fail_first(1));

  RecoveryBlock rb("isqrt", sqrt_acceptance());
  rb.ensure_by("transient", [plan](AltContext& ctx) {
    ctx.work(1);
    if (plan->next_fails()) ctx.fail("transient");
    const std::int64_t v = ctx.space().load<std::int64_t>(0);
    std::int64_t r = 0;
    while ((r + 1) * (r + 1) <= v) ++r;
    ctx.space().store<std::int64_t>(8, r);
  });

  auto first = rb.run_sequential(rt, world);
  EXPECT_FALSE(first.succeeded);
  auto second = rb.run_sequential(rt, world);
  ASSERT_TRUE(second.succeeded);
  EXPECT_EQ(world.space().load<std::int64_t>(8), 9);
}

}  // namespace
}  // namespace mw
