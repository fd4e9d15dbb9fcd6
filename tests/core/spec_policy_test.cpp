// Property tests for the adaptive speculation policy engine
// (core/spec_policy.hpp), swept over MW_FAULT_SEED_BASE / MW_FAULT_SEED_COUNT
// like the fault matrices. The properties under test are the engine's
// contract, not any particular tuning:
//
//   * kStatic is bit-for-bit pass-through: every decision returns its static
//     input, no step advances, no trace events — a kStatic pool run replays
//     exactly, per seed;
//   * decisions are pure in (config, snapshot, seed, step): identical inputs
//     give identical outputs across repeated calls, fresh engines, and
//     concurrent callers (thread count must not matter);
//   * the epsilon-explore floor guarantees every tracked position takes the
//     top slot at least once per window;
//   * decide_width never leaves [min(min_width, budget), budget], and a
//     shrunken width never rejects a race the static budget admits;
//   * latency-reservoir cold start: before min_latency_samples the adaptive
//     hedge delay falls back to the static delay — never to 0.
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
    if (i != winner) out.alts[i].pages_copied = 1;
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
  s.admissions = rng.next_below(100);
  s.admission_deferrals = rng.next_below(100);
  s.alts.resize(1 + rng.next_below(6));
  for (PolicyAltStat& a : s.alts) {
    a.spawned = rng.next_below(50);
    a.wins = a.spawned == 0 ? 0 : rng.next_below(a.spawned + 1);
    a.last_boost_step = rng.next_below(20);
  }
  s.latency_samples = rng.next_below(32);
  s.latency_p50 = static_cast<VDuration>(rng.next_below(1000));
  s.latency_p95 = s.latency_p50 + static_cast<VDuration>(rng.next_below(1000));
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
      const std::size_t budget = rng.next_below(16);
      EXPECT_EQ(SpecPolicy::decide_width(cfg, s, budget), budget);
      std::vector<double> bases(1 + rng.next_below(5));
      for (double& b : bases) b = rng.next_double();
      const PolicyPlan plan =
          SpecPolicy::decide_plan(cfg, s, seed, trial, bases);
      EXPECT_EQ(plan.priority, bases);
      EXPECT_FALSE(plan.explored);
      ASSERT_EQ(plan.order.size(), bases.size());
      for (std::size_t i = 0; i < plan.order.size(); ++i) {
        EXPECT_EQ(plan.order[i], i) << "static order must be identity";
      }
      const VDuration delay = 1 + static_cast<VDuration>(rng.next_below(500));
      EXPECT_EQ(SpecPolicy::decide_hedge_delay(cfg, s, delay), delay);
      EXPECT_TRUE(SpecPolicy::decide_split(cfg, s, trial, 4));
    }
  }
}

TEST(SpecPolicy, StaticWrappersNeverAdvanceStateOrStats) {
  SpecPolicy policy{PolicyConfig{}};  // a bare engine resolves kAuto to kStatic
  policy.observe_race(fake_race(4, 1));
  (void)policy.admission_width(8);
  const PolicyPlan plan = policy.plan_race(7, {0.5, 0.25});
  EXPECT_EQ(plan.priority, (std::vector<double>{0.5, 0.25}));
  (void)policy.hedge_delay(vt_ms(2));
  EXPECT_TRUE(policy.allow_split(0, 4));
  const PolicyStats st = policy.stats();
  EXPECT_EQ(st.plans, 0u);
  EXPECT_EQ(st.explores, 0u);
  EXPECT_EQ(st.width_decisions, 0u);
  EXPECT_EQ(st.hedge_decisions, 0u);
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
  // Adaptive decisions must be as replayable as static ones: the policy's
  // rng is keyed (seed, step), never the wall clock or the callers' state.
  const std::uint64_t base = sweep_base();
  for (std::uint64_t seed = base; seed < base + sweep_count(); ++seed) {
    const std::string a = pool_fingerprint(seed, PolicyMode::kAdaptive);
    const std::string b = pool_fingerprint(seed, PolicyMode::kAdaptive);
    EXPECT_EQ(a, b) << "seed=" << seed;
  }
}

TEST(SpecPolicy, IdenticalSnapshotAndSeedGiveIdenticalDecisions) {
  const std::uint64_t base = sweep_base();
  for (std::uint64_t seed = base; seed < base + sweep_count(); ++seed) {
    Rng rng(seed);
    PolicyConfig cfg;
    cfg.mode = PolicyMode::kAdaptive;
    const PolicySnapshot s = random_snapshot(rng);
    const std::vector<double> bases{0.0, 0.5, 0.25, 0.75};
    const std::uint64_t step = 1 + rng.next_below(100);
    const PolicyPlan ref = SpecPolicy::decide_plan(cfg, s, seed, step, bases);
    const std::size_t ref_width = SpecPolicy::decide_width(cfg, s, 8);
    const VDuration ref_delay = SpecPolicy::decide_hedge_delay(cfg, s, 100);

    // Concurrent callers: the decision functions are pure, so the thread
    // count must not matter. Any divergence is a determinism bug.
    constexpr int kThreads = 8;
    std::vector<PolicyPlan> plans(kThreads);
    std::vector<std::size_t> widths(kThreads);
    std::vector<VDuration> delays(kThreads);
    {
      std::vector<std::thread> threads;
      threads.reserve(kThreads);
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          plans[t] = SpecPolicy::decide_plan(cfg, s, seed, step, bases);
          widths[t] = SpecPolicy::decide_width(cfg, s, 8);
          delays[t] = SpecPolicy::decide_hedge_delay(cfg, s, 100);
        });
      }
      for (std::thread& th : threads) th.join();
    }
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(plans[t].priority, ref.priority) << "seed=" << seed;
      EXPECT_EQ(plans[t].order, ref.order) << "seed=" << seed;
      EXPECT_EQ(plans[t].top, ref.top) << "seed=" << seed;
      EXPECT_EQ(plans[t].deferred, ref.deferred) << "seed=" << seed;
      EXPECT_EQ(plans[t].explored, ref.explored) << "seed=" << seed;
      EXPECT_EQ(widths[t], ref_width) << "seed=" << seed;
      EXPECT_EQ(delays[t], ref_delay) << "seed=" << seed;
    }
  }
}

TEST(SpecPolicy, TwoEnginesFedTheSameHistoryPlanIdentically) {
  const std::uint64_t base = sweep_base();
  for (std::uint64_t seed = base; seed < base + sweep_count(); ++seed) {
    PolicyConfig cfg;
    cfg.mode = PolicyMode::kAdaptive;
    cfg.seed = seed;
    SpecPolicy a(cfg);
    SpecPolicy b(cfg);
    Rng script(seed);
    const std::vector<double> bases{0.0, 0.0, 0.0};
    for (int r = 0; r < 50; ++r) {
      const PolicyPlan pa = a.plan_race(0, bases);
      const PolicyPlan pb = b.plan_race(0, bases);
      ASSERT_EQ(pa.order, pb.order) << "seed=" << seed << " race=" << r;
      ASSERT_EQ(pa.explored, pb.explored) << "seed=" << seed << " race=" << r;
      const AltOutcome out = fake_race(3, script.next_below(3));
      a.observe_race(out);
      b.observe_race(out);
    }
  }
}

TEST(SpecPolicy, ExploreFloorBoostsEveryPositionOncePerWindow) {
  const std::uint64_t base = sweep_base();
  constexpr std::size_t kAlts = 4;
  for (std::uint64_t seed = base; seed < base + sweep_count(); ++seed) {
    PolicyConfig cfg;
    cfg.mode = PolicyMode::kAdaptive;
    cfg.seed = seed;
    cfg.epsilon = 0.0;  // isolate the floor from the epsilon draw
    cfg.explore_window = 8;
    SpecPolicy policy(cfg);
    // Position 0 wins every race: without the floor the plan would boost
    // position 0 forever and starve the rest.
    policy.observe_race(fake_race(kAlts, 0));
    const std::vector<double> bases(kAlts, 0.0);
    std::vector<std::uint64_t> last_top(kAlts, 0);
    constexpr std::uint64_t kPlans = 200;
    // Eligibility begins explore_window steps after the last boost; with
    // k-1 starved competitors a position then waits at most k-1 more plans
    // for its turn as the stalest.
    const std::uint64_t bound = cfg.explore_window + kAlts;
    for (std::uint64_t p = 1; p <= kPlans; ++p) {
      const PolicyPlan plan = policy.plan_race(0, bases);
      ASSERT_LT(plan.top, kAlts);
      last_top[plan.top] = p;
      for (std::size_t i = 0; i < kAlts; ++i) {
        EXPECT_LE(p - last_top[i], bound)
            << "seed=" << seed << ": position " << i << " starved at plan "
            << p;
      }
      policy.observe_race(fake_race(kAlts, 0));
    }
    for (std::size_t i = 0; i < kAlts; ++i) {
      EXPECT_GT(last_top[i], 0u)
          << "seed=" << seed << ": position " << i << " never explored";
    }
  }
}

TEST(SpecPolicy, WidthStaysWithinBudgetBoundsOnAnySnapshot) {
  const std::uint64_t base = sweep_base();
  for (std::uint64_t seed = base; seed < base + sweep_count(); ++seed) {
    Rng rng(seed);
    PolicyConfig cfg;
    cfg.mode = PolicyMode::kAdaptive;
    for (int trial = 0; trial < 50; ++trial) {
      const PolicySnapshot s = random_snapshot(rng);
      for (std::size_t budget : {std::size_t{0}, std::size_t{1},
                                 std::size_t{2}, std::size_t{5},
                                 std::size_t{8}, std::size_t{16}}) {
        const std::size_t w = SpecPolicy::decide_width(cfg, s, budget);
        EXPECT_LE(w, budget);
        EXPECT_GE(w, std::min(cfg.min_width, budget));
      }
    }
  }
}

TEST(SpecPolicy, AdaptiveWidthNeverRejectsARaceTheStaticBudgetAdmits) {
  // High wasted-work history shrinks the width, but the scheduler clamps
  // the effective budget to what the race needs: a 4-world race on a
  // max_live_worlds=4 pool must still admit with the controller at its
  // floor, and the live-world count must never exceed the static budget.
  RuntimeConfig cfg;
  cfg.backend = AltBackend::kPool;
  cfg.page_size = 256;
  cfg.num_pages = 16;
  cfg.seed = 11;
  cfg.pool.deterministic_seed = 11;
  cfg.pool.workers = 2;
  cfg.pool.max_live_worlds = 4;
  cfg.policy.mode = PolicyMode::kAdaptive;
  cfg.policy.min_races = 1;  // the controller reacts from the first race
  Runtime rt(cfg);
  World root = rt.make_root("clamp");
  for (int r = 0; r < 24; ++r) {
    std::vector<Alternative> race;
    for (int i = 0; i < 4; ++i) {
      const bool win = i == 0;
      race.push_back({win ? "w" : "l", nullptr,
                      [win](AltContext& ctx) {
                        ctx.work(100);  // losers burn work: waste stays high
                        if (!win) ctx.fail("scripted");
                        ctx.space().store<int>(0, 1);
                      },
                      nullptr, 0.0});
    }
    const AltOutcome out = run_alternatives(rt, root, race, {});
    EXPECT_FALSE(out.failed) << "race " << r << " rejected or failed";
    EXPECT_LE(rt.scheduler().live_worlds(), cfg.pool.max_live_worlds);
  }
  EXPECT_EQ(rt.scheduler().stats().admission_rejected, 0u);
}

TEST(SpecPolicy, HedgeDelayFallsBackToStaticWhileReservoirIsCold) {
  PolicyConfig cfg;
  cfg.mode = PolicyMode::kAdaptive;
  cfg.min_latency_samples = 8;
  cfg.hedge_floor = 1;
  SpecPolicy policy(cfg);
  const VDuration static_delay = vt_ms(2);
  // No samples at all: static fallback, never 0.
  EXPECT_EQ(policy.hedge_delay(static_delay), static_delay);
  // Short of the minimum: still the static fallback, even though the
  // reservoir already holds (degenerate, tiny) percentiles.
  for (int i = 0; i < 7; ++i) policy.observe_latency(10);
  EXPECT_EQ(policy.hedge_delay(static_delay), static_delay);
  EXPECT_EQ(policy.stats().hedge_fallbacks, 2u);
  // Warm: the adaptive delay is the observed p95 (here 10), not the static
  // delay and definitely not 0.
  policy.observe_latency(10);
  const VDuration warm = policy.hedge_delay(static_delay);
  EXPECT_EQ(warm, 10);
  EXPECT_GT(warm, 0);
  EXPECT_EQ(policy.stats().hedge_fallbacks, 2u);  // no new fallback
}

TEST(SpecPolicy, ColdStartSnapshotNeverYieldsZeroHedgeDelay) {
  const std::uint64_t base = sweep_base();
  for (std::uint64_t seed = base; seed < base + sweep_count(); ++seed) {
    Rng rng(seed);
    PolicyConfig cfg;
    cfg.mode = PolicyMode::kAdaptive;
    for (int trial = 0; trial < 50; ++trial) {
      PolicySnapshot s = random_snapshot(rng);
      const VDuration static_delay =
          1 + static_cast<VDuration>(rng.next_below(1000));
      if (trial % 2 == 0) s.latency_samples = rng.next_below(8);  // cold
      const VDuration d = SpecPolicy::decide_hedge_delay(cfg, s, static_delay);
      EXPECT_GT(d, 0) << "seed=" << seed;
      if (s.latency_samples < cfg.min_latency_samples) {
        EXPECT_EQ(d, static_delay) << "seed=" << seed;
      }
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
  cfg.epsilon = 0.0;
  constexpr std::uint64_t kStep = 100;
  PolicySnapshot s;
  for (const std::uint64_t wins : {3u, 3u, 4u, 6u})
    s.alts.push_back({.spawned = 16, .wins = wins, .last_boost_step = kStep});
  for (std::size_t hint = 0; hint < 4; ++hint) {
    std::vector<double> base(4, 0.0);
    base[hint] = 1.0;
    const PolicyPlan plan = SpecPolicy::decide_plan(cfg, s, 1, kStep, base);
    EXPECT_FALSE(plan.explored) << "hint " << hint;
    ASSERT_EQ(plan.order.size(), 4u);
    EXPECT_EQ(plan.order[0], hint);
    EXPECT_EQ(plan.order[1], hint == 3 ? 2u : 3u) << "hint " << hint;
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
  EXPECT_DEATH((void)SpecPolicy::decide_plan(cfg, s, 1, 1, {0.0, 1.0}),
               "MW_CHECK");
  EXPECT_DEATH((void)SpecPolicy::decide_width(cfg, s, 8), "MW_CHECK");
  EXPECT_DEATH((void)SpecPolicy::decide_hedge_delay(cfg, s, 5), "MW_CHECK");
  EXPECT_DEATH((void)SpecPolicy::decide_split(cfg, s, 1, 4), "MW_CHECK");
}

}  // namespace
}  // namespace mw
