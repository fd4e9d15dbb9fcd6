// Parameterized sweep of the §2.2 guard-phase combinations: "the GUARDs
// can be executed serially before spawning the alternatives; in the child
// process; at the synchronization point; or at any combination of these
// places, for redundancy." Every combination must agree on outcomes, on
// every engine (kPool both threaded and in deterministic mode), and a guard
// or acceptance test that throws fails only its own alternative.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <ostream>
#include <stdexcept>

#include "core/alt.hpp"
#include "core/alt_context.hpp"
#include "core/runtime.hpp"
#include "core/runtime_auditor.hpp"

namespace mw {
namespace {

struct GuardCase {
  AltBackend engine;
  std::uint64_t pool_seed;  // kPool only: 0 = threaded, else deterministic
  unsigned phases;
};

// The test name carries the phase mask; the instantiation prefix names the
// engine (ThreadPhaseCombos: kPool on real worker threads).
void PrintTo(const GuardCase& c, std::ostream* os) { *os << c.phases; }

class GuardMatrixTest : public ::testing::TestWithParam<GuardCase> {
 protected:
  RuntimeConfig config() {
    RuntimeConfig cfg;
    cfg.backend = GetParam().engine;
    cfg.processors = 4;
    cfg.cost = CostModel::free();
    cfg.page_size = 64;
    cfg.num_pages = 32;
    cfg.pool.deterministic_seed = GetParam().pool_seed;
    cfg.pool.workers = 2;
    return cfg;
  }
  AltOptions options() {
    AltOptions opts;
    opts.guard_phases = GetParam().phases;
    return opts;
  }
};

TEST_P(GuardMatrixTest, GuardedOutAlternativeNeverWins) {
  const unsigned phases = GetParam().phases;
  Runtime rt(config());
  World root = rt.make_root();
  root.space().store<int>(0, 0);  // the guard's condition variable
  auto out = run_alternatives(
      rt, root,
      {Alternative{"guarded",
                   [](const World& w) { return w.space().load<int>(0) != 0; },
                   [](AltContext& ctx) { ctx.work(1); }, nullptr},
       Alternative{"open", nullptr,
                   [](AltContext& ctx) { ctx.work(100); }, nullptr}},
      options());
  ASSERT_FALSE(out.failed) << "phases=" << phases;
  EXPECT_EQ(out.winner, 1u) << "phases=" << phases;
}

TEST_P(GuardMatrixTest, PassingGuardAllowsWin) {
  const unsigned phases = GetParam().phases;
  Runtime rt(config());
  World root = rt.make_root();
  root.space().store<int>(0, 1);
  auto out = run_alternatives(
      rt, root,
      {Alternative{"guarded",
                   [](const World& w) { return w.space().load<int>(0) == 1; },
                   [](AltContext& ctx) { ctx.work(1); }, nullptr}},
      options());
  EXPECT_FALSE(out.failed) << "phases=" << phases;
}

TEST_P(GuardMatrixTest, AllGuardedOutSelectsFailure) {
  const unsigned phases = GetParam().phases;
  Runtime rt(config());
  World root = rt.make_root();
  auto out = run_alternatives(
      rt, root,
      {Alternative{"g1", [](const World&) { return false; },
                   [](AltContext& ctx) { ctx.work(1); }, nullptr},
       Alternative{"g2", [](const World&) { return false; },
                   [](AltContext& ctx) { ctx.work(1); }, nullptr}},
      options());
  EXPECT_TRUE(out.failed) << "phases=" << phases;
  EXPECT_EQ(out.failure, AltFailure::kAllFailed) << "phases=" << phases;
}

// Runs {thrower, open} and checks the block decides for "open": nothing
// escapes run_alternatives and every spawned pid reaches a terminal status.
void expect_thrower_loses(Runtime& rt, Alternative thrower,
                          const AltOptions& opts) {
  RuntimeAuditor auditor;
  World root = rt.make_root();
  auditor.add_world(root);
  AltOutcome out;
  ASSERT_NO_THROW(out = run_alternatives(
                      rt, root,
                      {std::move(thrower),
                       Alternative{"open", nullptr,
                                   [](AltContext& ctx) { ctx.work(100); },
                                   nullptr}},
                      opts))
      << "phases=" << opts.guard_phases;
  ASSERT_FALSE(out.failed) << "phases=" << opts.guard_phases;
  EXPECT_EQ(out.winner_name, "open") << "phases=" << opts.guard_phases;
  const AuditReport audit = auditor.run(rt.processes());
  EXPECT_TRUE(audit.clean()) << audit.to_string();
}

TEST_P(GuardMatrixTest, ThrowingGuardFailsOnlyItsAlternative) {
  Runtime rt(config());
  expect_thrower_loses(
      rt,
      Alternative{"thrower",
                  [](const World&) -> bool {
                    throw std::runtime_error("guard blew up");
                  },
                  [](AltContext& ctx) { ctx.work(1); }, nullptr},
      options());
}

TEST_P(GuardMatrixTest, ThrowingAcceptFailsOnlyItsAlternative) {
  Runtime rt(config());
  expect_thrower_loses(
      rt,
      Alternative{"thrower", [](const World&) { return true; },
                  [](AltContext& ctx) { ctx.work(1); },
                  [](const World&) -> bool { throw 42; }},
      options());
}

constexpr unsigned kPhaseCombos[] = {
    kGuardPreSpawn,
    kGuardInChild,
    kGuardAtSync,
    kGuardPreSpawn | kGuardInChild,
    kGuardPreSpawn | kGuardAtSync,
    kGuardInChild | kGuardAtSync,
    kGuardPreSpawn | kGuardInChild | kGuardAtSync};

std::vector<GuardCase> cases(AltBackend engine, std::uint64_t pool_seed = 0) {
  std::vector<GuardCase> out;
  for (unsigned phases : kPhaseCombos)
    out.push_back({engine, pool_seed, phases});
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllPhaseCombos, GuardMatrixTest,
                         ::testing::ValuesIn(cases(AltBackend::kVirtual)));
INSTANTIATE_TEST_SUITE_P(ThreadPhaseCombos, GuardMatrixTest,
                         ::testing::ValuesIn(cases(AltBackend::kPool)));
INSTANTIATE_TEST_SUITE_P(PoolPhaseCombos, GuardMatrixTest,
                         ::testing::ValuesIn(cases(AltBackend::kPool, 7)));

TEST(GuardPhases, AtSyncSeesChildStateChanges) {
  // A guard evaluated only at sync sees what the body wrote; evaluated
  // pre-spawn it sees the parent's state and rejects.
  RuntimeConfig cfg;
  cfg.backend = AltBackend::kVirtual;
  cfg.cost = CostModel::free();
  cfg.page_size = 64;
  cfg.num_pages = 32;
  Runtime rt(cfg);
  auto guard = [](const World& w) { return w.space().load<int>(0) == 9; };
  auto body = [](AltContext& ctx) {
    ctx.space().store<int>(0, 9);
    ctx.work(1);
  };

  {
    World root = rt.make_root();
    AltOptions opts;
    opts.guard_phases = kGuardAtSync;
    auto out = run_alternatives(rt, root,
                                {Alternative{"a", guard, body, nullptr}},
                                opts);
    EXPECT_FALSE(out.failed);  // the body established the condition
  }
  {
    World root = rt.make_root();
    AltOptions opts;
    opts.guard_phases = kGuardPreSpawn;
    auto out = run_alternatives(rt, root,
                                {Alternative{"a", guard, body, nullptr}},
                                opts);
    EXPECT_TRUE(out.failed);  // parent state fails the precondition
  }
}

TEST(GuardPhases, RedundantGuardsCatchRaceInducedViolations) {
  // In-child passes at entry, but the body then invalidates the condition
  // — only the at-sync re-check (redundancy) catches it.
  RuntimeConfig cfg;
  cfg.backend = AltBackend::kVirtual;
  cfg.cost = CostModel::free();
  cfg.page_size = 64;
  cfg.num_pages = 32;
  Runtime rt(cfg);
  World root = rt.make_root();
  root.space().store<int>(0, 1);
  AltOptions opts;
  opts.guard_phases = kGuardInChild | kGuardAtSync;
  auto out = run_alternatives(
      rt, root,
      {Alternative{"self-sabotage",
                   [](const World& w) { return w.space().load<int>(0) == 1; },
                   [](AltContext& ctx) {
                     ctx.space().store<int>(0, 0);  // violates own guard
                     ctx.work(1);
                   },
                   nullptr}},
      opts);
  EXPECT_TRUE(out.failed);
}

}  // namespace
}  // namespace mw
