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
//     winner second, on every plan of a live engine.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/alt.hpp"
#include "core/alt_context.hpp"
#include "core/runtime.hpp"
#include "core/spec_policy.hpp"
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
/// succeeded, the rest ran and failed.
AltOutcome fake_race(std::size_t k, std::size_t winner) {
  AltOutcome out;
  out.winner = winner;
  out.alts.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    out.alts[i].index = i + 1;
    out.alts[i].spawned = true;
    out.alts[i].ran = true;
    out.alts[i].success = i == winner;
  }
  return out;
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
    a.spawned = rng.next_below(50);
    a.wins = a.spawned == 0 ? 0 : rng.next_below(a.spawned + 1);
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
  // 3, or position 2 when the hint is 3. The settled win rates are then
  // 3/16, 3/16, 4/16 and 6/16, so the blend ranks the wrong-hint winner
  // right after the hint and the second worker starts it at once.
  PolicyConfig cfg;
  cfg.mode = PolicyMode::kAdaptive;
  PolicySnapshot s;
  for (const std::uint64_t wins : {3u, 3u, 4u, 6u})
    s.alts.push_back({.spawned = 16, .wins = wins});
  for (std::size_t hint = 0; hint < 4; ++hint) {
    std::vector<double> base(4, 0.0);
    base[hint] = 1.0;
    const PolicyPlan plan = SpecPolicy::decide_plan(cfg, s, base);
    ASSERT_EQ(plan.order.size(), 4u);
    EXPECT_EQ(plan.order[0], hint);
    EXPECT_EQ(plan.order[1], hint == 3 ? 2u : 3u) << "hint " << hint;
  }
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
  auto wrong_hint_winner = [](std::size_t hint) -> std::size_t {
    return hint == kAlts - 1 ? kAlts - 2 : kAlts - 1;
  };
  constexpr int kWarmupCycles = 4;
  constexpr int kCheckedCycles = 4;  // 64 checked plans
  for (int cycle = 0; cycle < kWarmupCycles + kCheckedCycles; ++cycle) {
    for (std::size_t r = 0; r < 16; ++r) {
      const std::size_t hint = r / 4;
      const std::size_t winner = r % 4 == 3 ? wrong_hint_winner(hint) : hint;
      std::vector<double> base(kAlts, 0.0);
      base[hint] = 1.0;
      const PolicyPlan plan = policy.plan_race(0, base);
      if (cycle >= kWarmupCycles) {
        ASSERT_EQ(plan.order.size(), kAlts);
        EXPECT_EQ(plan.order[0], hint) << "cycle " << cycle << " race " << r;
        EXPECT_EQ(plan.order[1], wrong_hint_winner(hint))
            << "cycle " << cycle << " race " << r;
      }
      policy.observe_race(fake_race(kAlts, winner));
    }
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
