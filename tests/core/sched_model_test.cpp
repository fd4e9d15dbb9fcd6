// Deterministic scheduler model/property suite. The kPool backend's
// deterministic mode runs every task on the calling thread in an order
// drawn from a seed — each seed is one reproducible interleaving of the
// work-stealing scheduler. The property: on scripted races whose winner is
// semantically unique, every seed must produce the same observable outcome
// as the kVirtual reference engine — same winners, same failure kinds,
// same committed root-world bytes, clean audit — while the execution
// *order* varies freely across seeds.
//
// CI shards the seed sweep with MW_FAULT_SEED_BASE / MW_FAULT_SEED_COUNT
// (the fault-matrix convention); a failing seed is a replay handle.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#include "core/alt.hpp"
#include "core/alt_context.hpp"
#include "core/runtime.hpp"
#include "core/runtime_auditor.hpp"
#include "core/spec_scheduler.hpp"

namespace mw {
namespace {

constexpr int kRaces = 10;

struct ScriptRun {
  std::vector<int> winners;            // per race; -1 = block failed
  std::vector<AltFailure> failures;    // per race
  std::vector<std::uint64_t> digest;   // committed root bytes, slot by slot
  std::string order;                   // execution order of alt bodies
  bool audit_clean = false;
  std::string audit_text;
  SchedStats sched;                    // zeroed for non-pool backends
};

/// Runs the scripted race sequence. Race r has three alternatives; the one
/// at index r%3 stores a distinct value and syncs, the others fail — the
/// winner is semantically unique, so the outcome must not depend on the
/// schedule. Race 5 is the all-fail block (failure is the (n+1)-th
/// alternative). `order` logs which bodies actually ran, in what order.
ScriptRun run_script(AltBackend backend, std::uint64_t pool_seed) {
  RuntimeConfig cfg;
  cfg.backend = backend;
  cfg.page_size = 256;
  cfg.num_pages = 16;
  cfg.pool.deterministic_seed = pool_seed;
  cfg.pool.workers = 2;
  Runtime rt(cfg);

  ScriptRun out;
  RuntimeAuditor auditor;
  World root = rt.make_root("script");
  auditor.add_world(root);
  std::mutex order_mu;

  for (int r = 0; r < kRaces; ++r) {
    const int w = r % 3;
    const bool all_fail = r == 5;
    std::vector<Alternative> race;
    for (int a = 0; a < 3; ++a) {
      const std::string name(1, static_cast<char>('a' + a));
      race.push_back(Alternative{
          name, nullptr,
          [&, r, a, w, all_fail, name](AltContext& ctx) {
            {
              std::lock_guard<std::mutex> lk(order_mu);
              out.order += name;
            }
            ctx.work(vt_us(20));
            if (all_fail || a != w) ctx.fail("scripted loss");
            ctx.space().store<std::uint64_t>(
                8ull * static_cast<std::uint64_t>(r % 8),
                1000ull + static_cast<std::uint64_t>(r));
            ctx.set_result_string(name);
          },
          nullptr, 0.0});
    }
    const AltOutcome o = run_alternatives(rt, root, race, {});
    out.winners.push_back(o.winner ? static_cast<int>(*o.winner) : -1);
    out.failures.push_back(o.failure);
    if (all_fail) {
      EXPECT_TRUE(o.failed) << "race " << r;
    } else {
      EXPECT_FALSE(o.failed) << "race " << r;
      EXPECT_EQ(o.winner_name, std::string(1, static_cast<char>('a' + w)));
    }
  }

  for (std::uint64_t s = 0; s < 8; ++s)
    out.digest.push_back(root.space().load<std::uint64_t>(8 * s));
  const AuditReport audit = auditor.run(rt.processes());
  out.audit_clean = audit.clean();
  out.audit_text = audit.to_string();
  if (backend == AltBackend::kPool) out.sched = rt.scheduler().stats();
  return out;
}

void expect_equivalent(const ScriptRun& a, const ScriptRun& b,
                       const std::string& label) {
  EXPECT_EQ(a.winners, b.winners) << label;
  EXPECT_EQ(a.failures, b.failures) << label;
  EXPECT_EQ(a.digest, b.digest) << label;
  EXPECT_TRUE(a.audit_clean) << label << "\n" << a.audit_text;
  EXPECT_TRUE(b.audit_clean) << label << "\n" << b.audit_text;
}

TEST(SchedModel, DeterministicPoolMatchesVirtualBackend) {
  const ScriptRun virtual_run = run_script(AltBackend::kVirtual, 0);
  const ScriptRun pool_run = run_script(AltBackend::kPool, 3);
  expect_equivalent(virtual_run, pool_run, "virtual vs pool(seed=3)");
}

TEST(SchedModel, SameSeedReplaysTheIdenticalSchedule) {
  const ScriptRun a = run_script(AltBackend::kPool, 17);
  const ScriptRun b = run_script(AltBackend::kPool, 17);
  expect_equivalent(a, b, "seed 17 replay");
  EXPECT_EQ(a.order, b.order);  // not just outcome: the schedule itself
  EXPECT_EQ(a.sched.executed, b.sched.executed);
  EXPECT_EQ(a.sched.stolen, b.sched.stolen);
  EXPECT_EQ(a.sched.revoked, b.sched.revoked);
}

TEST(SchedModel, SeedsExploreDifferentInterleavings) {
  // Equal-priority tasks: the owner/thief coin varies LIFO vs FIFO
  // tie-breaking, so the bodies' execution order must differ across seeds
  // even though every outcome is identical.
  std::vector<std::string> orders;
  for (std::uint64_t seed = 1; seed <= 16; ++seed)
    orders.push_back(run_script(AltBackend::kPool, seed).order);
  bool any_different = false;
  for (const std::string& o : orders)
    if (o != orders.front()) any_different = true;
  EXPECT_TRUE(any_different)
      << "16 seeds produced one schedule: the coin is not wired";
}

TEST(SchedModel, EnvSeedSweepIsEquivalentToTheVirtualBackend) {
  const char* base_env = std::getenv("MW_FAULT_SEED_BASE");
  const char* count_env = std::getenv("MW_FAULT_SEED_COUNT");
  const std::uint64_t base =
      base_env ? std::strtoull(base_env, nullptr, 10) : 1;
  const std::uint64_t count =
      count_env ? std::strtoull(count_env, nullptr, 10) : 16;
  const ScriptRun reference = run_script(AltBackend::kVirtual, 0);
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    const ScriptRun run = run_script(AltBackend::kPool, seed);
    expect_equivalent(reference, run, "seed=" + std::to_string(seed));
  }
}

TEST(SchedModel, PriorityHintsDoNotChangeTheScriptedOutcome) {
  // Priorities reorder execution, never selection: boosting a scripted
  // loser must not let it win.
  RuntimeConfig cfg;
  cfg.backend = AltBackend::kPool;
  cfg.page_size = 256;
  cfg.num_pages = 16;
  cfg.pool.deterministic_seed = 9;
  cfg.pool.workers = 2;
  Runtime rt(cfg);
  World root = rt.make_root("prio");
  std::vector<Alternative> race;
  race.push_back({"boosted-loser", nullptr,
                  [](AltContext& ctx) { ctx.fail("still loses"); }, nullptr,
                  /*priority=*/5.0});
  race.push_back({"winner", nullptr,
                  [](AltContext& ctx) { ctx.space().store<int>(0, 7); },
                  nullptr, /*priority=*/-1.0});
  const AltOutcome out = run_alternatives(rt, root, race, {});
  ASSERT_FALSE(out.failed);
  EXPECT_EQ(out.winner_name, "winner");
  EXPECT_EQ(root.space().load<int>(0), 7);
}

}  // namespace
}  // namespace mw
