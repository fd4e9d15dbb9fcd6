// Property tests for the speculation policy engine (core/spec_policy.hpp),
// swept over MW_FAULT_SEED_BASE / MW_FAULT_SEED_COUNT like the fault
// matrices. The properties under test are the engine's contract, not any
// particular tuning:
//
//   * kStatic is bit-for-bit pass-through: every decision returns its static
//     input, no state advances, no trace events — a kStatic pool run
//     replays exactly, per seed;
//   * decisions are pure in (config, snapshot[, split step]): identical
//     inputs give identical outputs across repeated calls, fresh engines,
//     and concurrent callers (thread count must not matter);
//   * a settled race_prune history ranks the hint first and the wrong-hint
//     winner second, on every plan of a live engine, and the pool submits
//     a race in its plan's order.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/alt.hpp"
#include "core/alt_context.hpp"
#include "core/runtime.hpp"
#include "core/spec_policy.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace mw {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t def) {
  const char* v = std::getenv(name);
  return v ? std::strtoull(v, nullptr, 10) : def;
}

std::uint64_t sweep_base() { return env_u64("MW_FAULT_SEED_BASE", 1); }
std::uint64_t sweep_count() { return env_u64("MW_FAULT_SEED_COUNT", 8); }

/// A fabricated race outcome: k spawned positions, `winner` (0-based)
/// succeeded, the rest ran and failed. `led` marks the position the race's
/// priority hint favoured, as begin_block does.
AltOutcome fake_race(std::size_t k, std::size_t winner,
                     std::optional<std::size_t> led = std::nullopt) {
  AltOutcome out;
  out.winner = winner;
  out.alts.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    out.alts[i].index = i + 1;
    out.alts[i].spawned = true;
    out.alts[i].ran = true;
    out.alts[i].success = i == winner;
    out.alts[i].led = led == i;
  }
  return out;
}

/// race_prune's wrong-hint winner: the other alternative submitted last.
std::size_t wrong_hint_winner(std::size_t k, std::size_t hint) {
  return hint == k - 1 ? k - 2 : k - 1;
}

/// Base priorities with one hinted position at `hint_priority`.
std::vector<double> hinted_base(std::size_t k, std::size_t hint,
                                double hint_priority = 1.0) {
  std::vector<double> base(k, 0.0);
  base[hint] = hint_priority;
  return base;
}

/// A seeded pseudo-random snapshot: any field combination the accumulators
/// could reach, for bound properties that must hold on all of them.
PolicySnapshot random_snapshot(Rng& rng) {
  PolicySnapshot s;
  s.races = rng.next_below(100);
  s.work_total = static_cast<double>(rng.next_below(1000));
  s.work_wasted = s.work_total * rng.next_double();
  s.alts.resize(1 + rng.next_below(6));
  for (PolicyAltStat& a : s.alts) {
    const std::uint64_t spawned = rng.next_below(50);
    const std::uint64_t led_spawned = rng.next_below(50);
    a.spawned = static_cast<double>(spawned);
    a.wins = static_cast<double>(rng.next_below(spawned + 1));
    a.led_spawned = static_cast<double>(led_spawned);
    a.led_wins = static_cast<double>(rng.next_below(led_spawned + 1));
  }
  return s;
}

TEST(SpecPolicy, StaticDecisionsArePureStaticPassThrough) {
  const std::uint64_t base = sweep_base();
  for (std::uint64_t seed = base; seed < base + sweep_count(); ++seed) {
    Rng rng(seed);
    PolicyConfig cfg;
    cfg.mode = PolicyMode::kStatic;
    for (int trial = 0; trial < 20; ++trial) {
      const PolicySnapshot s = random_snapshot(rng);
      std::vector<double> bases(1 + rng.next_below(5));
      for (double& b : bases) b = rng.next_double();
      const PolicyPlan plan = SpecPolicy::decide_plan(cfg, s, bases);
      EXPECT_EQ(plan.priority, bases);
      ASSERT_EQ(plan.order.size(), bases.size());
      for (std::size_t i = 0; i < plan.order.size(); ++i) {
        EXPECT_EQ(plan.order[i], i) << "static order must be identity";
      }
      EXPECT_TRUE(SpecPolicy::decide_split(cfg, s, trial, 4));
    }
  }
}

TEST(SpecPolicy, StaticWrappersNeverAdvanceStateOrStats) {
  SpecPolicy policy{PolicyConfig{}};  // a bare engine resolves kAuto to kStatic
  policy.observe_race(fake_race(4, 1));
  const PolicyPlan plan = policy.plan_race(7, {0.5, 0.25});
  EXPECT_EQ(plan.priority, (std::vector<double>{0.5, 0.25}));
  EXPECT_TRUE(policy.allow_split(0, 4));
  const PolicyStats st = policy.stats();
  EXPECT_EQ(st.plans, 0u);
  EXPECT_EQ(st.splits_vetoed, 0u);
}

/// One deterministic-pool run of scripted races under a given policy mode:
/// the winners and per-position report flags are the replay fingerprint.
std::string pool_fingerprint(std::uint64_t seed, PolicyMode mode) {
  RuntimeConfig cfg;
  cfg.backend = AltBackend::kPool;
  cfg.page_size = 256;
  cfg.num_pages = 16;
  cfg.seed = seed;
  cfg.pool.deterministic_seed = seed;
  cfg.pool.workers = 2;
  cfg.pool.deterministic_steal_prob = 0.25;
  cfg.policy.mode = mode;
  Runtime rt(cfg);
  World root = rt.make_root("replay");
  std::string fp;
  Rng script(seed);
  for (int r = 0; r < 12; ++r) {
    const std::size_t winner = script.next_below(3);
    std::vector<Alternative> race;
    for (std::size_t i = 0; i < 3; ++i) {
      if (i == winner) {
        race.push_back({"w", nullptr,
                        [](AltContext& ctx) { ctx.space().store<int>(0, 1); },
                        nullptr, 0.0});
      } else {
        race.push_back({"l", nullptr,
                        [](AltContext& ctx) { ctx.fail("scripted"); },
                        nullptr, 0.0});
      }
    }
    const AltOutcome out = run_alternatives(rt, root, race, {});
    fp += out.winner ? std::to_string(*out.winner) : "x";
    for (const AltReport& a : out.alts) {
      fp += a.ran ? 'r' : (a.revoked ? 'v' : '.');
    }
    fp += '/';
  }
  return fp;
}

TEST(SpecPolicy, StaticPoolRunReplaysBitForBitPerSeed) {
  const std::uint64_t base = sweep_base();
  for (std::uint64_t seed = base; seed < base + sweep_count(); ++seed) {
    const std::string a = pool_fingerprint(seed, PolicyMode::kStatic);
    const std::string b = pool_fingerprint(seed, PolicyMode::kStatic);
    EXPECT_EQ(a, b) << "seed=" << seed;
  }
}

TEST(SpecPolicy, AdaptivePoolRunReplaysBitForBitPerSeed) {
  // Adaptive decisions must be as replayable as static ones: they read
  // only the observed history, never the wall clock or the callers' state.
  const std::uint64_t base = sweep_base();
  for (std::uint64_t seed = base; seed < base + sweep_count(); ++seed) {
    const std::string a = pool_fingerprint(seed, PolicyMode::kAdaptive);
    const std::string b = pool_fingerprint(seed, PolicyMode::kAdaptive);
    EXPECT_EQ(a, b) << "seed=" << seed;
  }
}

TEST(SpecPolicy, PoolEnqueuesARaceInPlanOrder) {
  // The dispatch path must submit in plan.order, not just compute it: a
  // plan that is not the identity has to show up in the order the race's
  // tasks reach the scheduler. A twin engine fed the same outcomes says
  // what the runtime's plan is, and that plan must run hottest first.
#if defined(MW_TRACE_DISABLED)
  GTEST_SKIP() << "tracing compiled out (MW_TRACE=OFF)";
#endif
  RuntimeConfig cfg;
  cfg.backend = AltBackend::kPool;
  cfg.page_size = 256;
  cfg.num_pages = 16;
  cfg.pool.deterministic_seed = 11;
  cfg.pool.workers = 2;
  cfg.policy.mode = PolicyMode::kAdaptive;
  Runtime rt(cfg);
  SpecPolicy twin(cfg.policy);
  World root = rt.make_root("order");
  constexpr std::size_t kAlts = 4;
  auto race = [&](std::size_t winner) {
    std::vector<Alternative> alts;
    for (std::size_t i = 0; i < kAlts; ++i) {
      if (i == winner) {
        alts.push_back({"w", nullptr,
                        [](AltContext& ctx) { ctx.space().store<int>(0, 1); },
                        nullptr, 0.0});
      } else {
        alts.push_back({"l", nullptr,
                        [](AltContext& ctx) { ctx.fail("scripted"); },
                        nullptr, 0.0});
      }
    }
    return alts;
  };
  // Position 2 wins most races and position 1 some: the learned order is
  // 2, 1, then the rest.
  for (const std::size_t w : {2u, 2u, 1u, 2u, 2u, 1u, 2u, 2u}) {
    const std::vector<double> base(kAlts, 0.0);
    (void)twin.plan_race(0, base);
    const AltOutcome out = run_alternatives(rt, root, race(w), {});
    ASSERT_EQ(out.winner, w);
    twin.observe_race(out);
  }
  const PolicyPlan plan = twin.plan_race(0, std::vector<double>(kAlts, 0.0));
  ASSERT_EQ(plan.order, (std::vector<std::size_t>{2, 1, 0, 3}));
  // Hottest first: the order follows the effective priorities down.
  for (std::size_t r = 1; r < kAlts; ++r)
    EXPECT_GE(plan.priority[plan.order[r - 1]], plan.priority[plan.order[r]]);

  trace::reset();
  std::vector<std::uint64_t> enqueued;
  {
    trace::Scope traced(true);
    (void)run_alternatives(rt, root, race(2), {});
  }
  for (const trace::TraceEvent& e : trace::collect())
    if (e.kind == trace::EventKind::kSchedEnqueue) enqueued.push_back(e.b);
  std::vector<std::uint64_t> want;
  for (const std::size_t pos : plan.order) want.push_back(pos + 1);
  EXPECT_EQ(enqueued, want);
}

TEST(SpecPolicy, IdenticalHistoryGivesIdenticalPlanAndSplitDecisions) {
  const std::uint64_t base = sweep_base();
  for (std::uint64_t seed = base; seed < base + sweep_count(); ++seed) {
    Rng rng(seed);
    PolicyConfig cfg;
    cfg.mode = PolicyMode::kAdaptive;
    const PolicySnapshot s = random_snapshot(rng);
    const std::vector<double> bases{0.0, 0.5, 0.25, 0.75};
    const std::uint64_t step = 1 + rng.next_below(100);
    const PolicyPlan ref = SpecPolicy::decide_plan(cfg, s, bases);
    const bool ref_split = SpecPolicy::decide_split(cfg, s, step, 4);

    // Concurrent callers: the decision functions are pure, so the thread
    // count must not matter. Any divergence is a determinism bug.
    constexpr int kThreads = 8;
    std::vector<PolicyPlan> plans(kThreads);
    std::vector<char> splits(kThreads);
    {
      std::vector<std::thread> threads;
      threads.reserve(kThreads);
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          plans[t] = SpecPolicy::decide_plan(cfg, s, bases);
          splits[t] = SpecPolicy::decide_split(cfg, s, step, 4);
        });
      }
      for (std::thread& th : threads) th.join();
    }
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(plans[t].priority, ref.priority) << "seed=" << seed;
      EXPECT_EQ(plans[t].order, ref.order) << "seed=" << seed;
      EXPECT_EQ(plans[t].top, ref.top) << "seed=" << seed;
      EXPECT_EQ(plans[t].deferred, ref.deferred) << "seed=" << seed;
      EXPECT_EQ(splits[t] != 0, ref_split) << "seed=" << seed;
    }
  }
}

TEST(SpecPolicy, TwoEnginesFedTheSameHistoryPlanIdentically) {
  const std::uint64_t base = sweep_base();
  for (std::uint64_t seed = base; seed < base + sweep_count(); ++seed) {
    PolicyConfig cfg;
    cfg.mode = PolicyMode::kAdaptive;
    SpecPolicy a(cfg);
    SpecPolicy b(cfg);
    Rng script(seed);
    const std::vector<double> bases{0.0, 0.0, 0.0};
    for (int r = 0; r < 50; ++r) {
      const PolicyPlan pa = a.plan_race(0, bases);
      const PolicyPlan pb = b.plan_race(0, bases);
      ASSERT_EQ(pa.order, pb.order) << "seed=" << seed << " race=" << r;
      const AltOutcome out = fake_race(3, script.next_below(3));
      a.observe_race(out);
      b.observe_race(out);
    }
  }
}

TEST(SpecPolicy, SettledHintedRaceRanksTheWrongHintWinnerSecond) {
  // race_prune's shape: the hint (base priority 1) is spread evenly over 4
  // positions and right 75% of the time; a wrong hint's winner is position
  // 3, or position 2 when the hint is 3. Every position then leads a
  // quarter of the races and wins 3 in 4 of them. Unled, position 3 wins
  // 1 race in 4, position 2 1 in 12, and positions 0 and 1 never, so the
  // blend ranks the wrong-hint winner right after the hint and the second
  // worker starts it at once.
  PolicyConfig cfg;
  cfg.mode = PolicyMode::kAdaptive;
  PolicySnapshot s;
  for (const double wins : {0.0, 0.0, 4.0, 12.0})
    s.alts.push_back(
        {.spawned = 48, .wins = wins, .led_spawned = 16, .led_wins = 12});
  for (std::size_t hint = 0; hint < 4; ++hint) {
    const PolicyPlan plan = SpecPolicy::decide_plan(cfg, s, hinted_base(4, hint));
    ASSERT_EQ(plan.order.size(), 4u);
    EXPECT_EQ(plan.order[0], hint);
    EXPECT_EQ(plan.order[1], wrong_hint_winner(4, hint)) << "hint " << hint;
  }
}

TEST(SpecPolicy, LedPositionNeedsAStrictTopPriority) {
  EXPECT_EQ(led_position(std::vector<double>{0.0, 1.0, 0.5}), 1u);
  EXPECT_EQ(led_position(std::vector<double>{2.0, 0.0, 0.0}), 0u);
  EXPECT_EQ(led_position(std::vector<double>{1.0, 0.0, 1.0}), std::nullopt);
  EXPECT_EQ(led_position(std::vector<double>{0.0, 0.0, 0.0}), std::nullopt);
  EXPECT_EQ(led_position(std::vector<double>{1.0}), std::nullopt);
  EXPECT_EQ(led_position(std::vector<double>{}), std::nullopt);
}

TEST(SpecPolicy, TiedRacesLearnOnlyUnledCounters) {
  // Races with no strict top priority have no led alternative: their
  // reports fill only the unled counters, and a plan over equal bases
  // ranks by those alone.
  PolicyConfig cfg;
  cfg.mode = PolicyMode::kAdaptive;
  SpecPolicy policy(cfg);
  for (int r = 0; r < 8; ++r) policy.observe_race(fake_race(3, 2));
  const PolicyPlan plan = policy.plan_race(0, {0.0, 0.0, 0.0});
  EXPECT_EQ(plan.order, (std::vector<std::size_t>{2, 0, 1}));
}

TEST(SpecPolicy, LiveEngineRanksHintThenWrongHintWinnerOnEveryPlan) {
  // The same ranking on a live engine, planned and fed one race at a time.
  // Each 16-race cycle has race_prune's exact proportions: every position
  // is hinted 4 times in a row and the hint is right 3 times of 4; a wrong
  // hint's winner is position 3, or position 2 when the hint is 3. A
  // position then goes 12 plans without leading, and no plan may promote
  // it over the hint or the wrong-hint winner.
  PolicyConfig cfg;
  cfg.mode = PolicyMode::kAdaptive;
  SpecPolicy policy(cfg);
  constexpr std::size_t kAlts = 4;
  constexpr int kWarmupCycles = 4;
  constexpr int kCheckedCycles = 4;  // 64 checked plans
  for (int cycle = 0; cycle < kWarmupCycles + kCheckedCycles; ++cycle) {
    for (std::size_t r = 0; r < 16; ++r) {
      const std::size_t hint = r / 4;
      const std::size_t winner =
          r % 4 == 3 ? wrong_hint_winner(kAlts, hint) : hint;
      const PolicyPlan plan = policy.plan_race(0, hinted_base(kAlts, hint));
      if (cycle >= kWarmupCycles) {
        ASSERT_EQ(plan.order.size(), kAlts);
        EXPECT_EQ(plan.order[0], hint) << "cycle " << cycle << " race " << r;
        EXPECT_EQ(plan.order[1], wrong_hint_winner(kAlts, hint))
            << "cycle " << cycle << " race " << r;
      }
      policy.observe_race(fake_race(kAlts, winner, hint));
    }
  }
}

TEST(SpecPolicy, SeededHintedDrawRanksTheWrongHintWinnerSecond) {
  // race_prune's seeded draw rather than a fixed cycle: the hint is drawn
  // uniformly per race and is right with probability 0.75. Runs of one
  // hint and runs of wrong hints then come in every length, and the
  // win_window halving lands anywhere in them. The hint must still rank
  // first on every plan, and the wrong-hint winner second on at least 99%
  // of the checked plans of all swept seeds together and 98% of any one
  // seed's. Over seeds 1-400 it is second on 99.8% of plans on average
  // and on 98.6% in the worst seed; counting the hint's wins in its
  // siblings' counters put it second on 82-88%.
  constexpr std::size_t kAlts = 4;
  constexpr int kWarmup = 256;
  constexpr int kChecked = 3840;
  const std::uint64_t base = sweep_base();
  std::uint64_t second_total = 0;
  for (std::uint64_t seed = base; seed < base + sweep_count(); ++seed) {
    PolicyConfig cfg;
    cfg.mode = PolicyMode::kAdaptive;
    SpecPolicy policy(cfg);
    Rng draw(seed);
    int second = 0;
    for (int r = 0; r < kWarmup + kChecked; ++r) {
      const std::size_t hint = draw.next_below(kAlts);
      const std::size_t winner =
          draw.next_bool(0.75) ? hint : wrong_hint_winner(kAlts, hint);
      const PolicyPlan plan = policy.plan_race(0, hinted_base(kAlts, hint));
      if (r >= kWarmup) {
        ASSERT_EQ(plan.order.size(), kAlts);
        EXPECT_EQ(plan.order[0], hint) << "seed " << seed << " race " << r;
        if (plan.order[1] == wrong_hint_winner(kAlts, hint)) ++second;
      }
      policy.observe_race(fake_race(kAlts, winner, hint));
    }
    EXPECT_GE(second, kChecked * 98 / 100)
        << "seed " << seed << ": wrong-hint winner second on " << second
        << " of " << kChecked << " plans";
    second_total += static_cast<std::uint64_t>(second);
  }
  EXPECT_GE(second_total, sweep_count() * kChecked * 99 / 100)
      << "wrong-hint winner second on " << second_total << " of "
      << sweep_count() * kChecked << " plans";
}

TEST(SpecPolicy, AlwaysWinningSiblingOvertakesAnAlwaysWrongHint) {
  // The other side of the learning decision: a hint that never wins must
  // not hold its position against a sibling that always does. The hint
  // (base 0.5) rotates over positions 1-3 and is always wrong; position 0
  // always wins. The hint's led rate falls to 0 and position 0's unled
  // rate rises to 1, so position 0 ranks first on every settled plan.
  constexpr std::size_t kAlts = 4;
  PolicyConfig cfg;
  cfg.mode = PolicyMode::kAdaptive;
  SpecPolicy policy(cfg);
  for (int r = 0; r < 128; ++r) {
    const std::size_t hint = 1 + static_cast<std::size_t>(r) % (kAlts - 1);
    const PolicyPlan plan = policy.plan_race(0, hinted_base(kAlts, hint, 0.5));
    if (r >= 32) {
      ASSERT_EQ(plan.order.size(), kAlts);
      EXPECT_EQ(plan.order[0], 0u) << "race " << r;
      EXPECT_EQ(plan.order[1], hint) << "race " << r;
    }
    policy.observe_race(fake_race(kAlts, 0, hint));
  }
}

TEST(SpecPolicy, DefaultModeResolvesPerEngine) {
  EXPECT_EQ(PolicyConfig{}.mode, PolicyMode::kAuto);
  auto resolved = [](AltBackend backend, std::uint64_t det_seed,
                     PolicyMode mode) {
    RuntimeConfig cfg;
    cfg.backend = backend;
    cfg.pool.deterministic_seed = det_seed;
    cfg.policy.mode = mode;
    Runtime rt(cfg);
    return rt.policy().mode();
  };
  // Wall-clock kPool learns its race order; the replayable engines do not.
  EXPECT_EQ(resolved(AltBackend::kPool, 0, PolicyMode::kAuto),
            PolicyMode::kAdaptive);
  EXPECT_EQ(resolved(AltBackend::kPool, 7, PolicyMode::kAuto),
            PolicyMode::kStatic);
  EXPECT_EQ(resolved(AltBackend::kVirtual, 0, PolicyMode::kAuto),
            PolicyMode::kStatic);
  // An explicit mode is kept on every engine.
  EXPECT_EQ(resolved(AltBackend::kPool, 0, PolicyMode::kStatic),
            PolicyMode::kStatic);
  EXPECT_EQ(resolved(AltBackend::kPool, 7, PolicyMode::kAdaptive),
            PolicyMode::kAdaptive);
  EXPECT_EQ(resolved(AltBackend::kVirtual, 0, PolicyMode::kAdaptive),
            PolicyMode::kAdaptive);
  // No owner to resolve it: a bare engine plans statically.
  EXPECT_EQ(SpecPolicy{}.mode(), PolicyMode::kStatic);
}

TEST(SpecPolicyDeath, DecisionsRejectTheUnresolvedMode) {
  const PolicyConfig cfg;  // kAuto
  const PolicySnapshot s;
  EXPECT_DEATH((void)SpecPolicy::decide_plan(cfg, s, {0.0, 1.0}), "MW_CHECK");
  EXPECT_DEATH((void)SpecPolicy::decide_split(cfg, s, 1, 4), "MW_CHECK");
}

}  // namespace
}  // namespace mw
