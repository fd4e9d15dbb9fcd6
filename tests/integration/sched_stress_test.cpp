// Scheduler stress: ten thousand races across kVirtual, threaded kPool and
// deterministic kPool, concurrent drivers hammering one shared pool, a long
// deterministic-pool run, and the worlds-layer admission budget — every
// configuration must leave the runtime auditor clean.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/alt.hpp"
#include "core/alt_context.hpp"
#include "core/runtime.hpp"
#include "core/runtime_auditor.hpp"
#include "worlds/spec_runtime.hpp"

namespace mw {
namespace {

// A fast scripted race: the winner stores a sentinel and syncs, the loser
// fails immediately. Cheap enough to run thousands of times per backend.
std::vector<Alternative> fast_race(int r) {
  std::vector<Alternative> race;
  race.push_back({"w", nullptr,
                  [r](AltContext& ctx) {
                    ctx.work(vt_us(10));
                    ctx.space().store<int>(0, r + 1);
                  },
                  nullptr, 0.0});
  race.push_back({"l", nullptr,
                  [](AltContext& ctx) {
                    ctx.work(vt_us(10));
                    ctx.fail("scripted");
                  },
                  nullptr, 0.0});
  return race;
}

struct BackendLoad {
  AltBackend backend;
  std::uint64_t det_seed;  // pool only; 0 = threaded pool
  int races;
  const char* label;
};

TEST(SchedStress, TenThousandRacesAcrossBackendsAuditClean) {
  const BackendLoad loads[] = {
      {AltBackend::kVirtual, 0, 5000, "virtual"},
      {AltBackend::kPool, 0, 3000, "pool-threaded"},
      {AltBackend::kPool, 42, 2000, "pool-deterministic"},
  };
  int total = 0;
  for (const BackendLoad& load : loads) {
    RuntimeConfig cfg;
    cfg.backend = load.backend;
    cfg.page_size = 256;
    cfg.num_pages = 16;
    cfg.pool.deterministic_seed = load.det_seed;
    cfg.pool.workers = 2;
    Runtime rt(cfg);
    RuntimeAuditor auditor;
    World root = rt.make_root(load.label);
    auditor.add_world(root);
    for (int r = 0; r < load.races; ++r) {
      const AltOutcome out = run_alternatives(rt, root, fast_race(r), {});
      ASSERT_FALSE(out.failed) << load.label << " race " << r;
      ASSERT_EQ(root.space().load<int>(0), r + 1)
          << load.label << " race " << r;
    }
    total += load.races;
    EXPECT_EQ(rt.stats().blocks_won,
              static_cast<std::uint64_t>(load.races));
    const AuditReport audit = auditor.run(rt.processes());
    EXPECT_TRUE(audit.clean()) << load.label << "\n" << audit.to_string();
  }
  EXPECT_EQ(total, 10000);
}

TEST(SchedStress, ConcurrentDriversShareOnePool) {
  // Eight driver threads race independent worlds through one scheduler:
  // the admission ledger must return to zero and every root must hold its
  // own final sentinel (no cross-race state bleed).
  RuntimeConfig cfg;
  cfg.backend = AltBackend::kPool;
  cfg.page_size = 256;
  cfg.num_pages = 16;
  cfg.pool.max_live_worlds = 6;  // forces admission traffic under load
  cfg.pool.admission_wait = 10'000'000;
  Runtime rt(cfg);
  RuntimeAuditor auditor;
  constexpr int kDrivers = 8;
  constexpr int kRacesPerDriver = 100;
  std::vector<World> roots;
  roots.reserve(kDrivers);
  for (int d = 0; d < kDrivers; ++d) {
    roots.push_back(rt.make_root("drv" + std::to_string(d)));
    auditor.add_world(roots.back());
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> drivers;
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&, d] {
      for (int r = 0; r < kRacesPerDriver; ++r) {
        const int sentinel = d * kRacesPerDriver + r + 1;
        const AltOutcome out =
            run_alternatives(rt, roots[d], fast_race(sentinel - 1), {});
        if (out.failed ||
            roots[d].space().load<int>(0) != sentinel) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : drivers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(rt.scheduler().live_worlds(), 0u);
  EXPECT_EQ(rt.stats().blocks_won,
            static_cast<std::uint64_t>(kDrivers * kRacesPerDriver));
  const AuditReport audit = auditor.run(rt.processes());
  EXPECT_TRUE(audit.clean()) << audit.to_string();
}

TEST(SchedStress, WorldsAdmissionBudgetDefersAndDrains) {
  // Three roots each spawn a four-way speculative group at t=0 under a
  // budget too small for all of them at once: later groups defer (pids and
  // predicates exist, worlds do not), then materialize FIFO as earlier
  // groups resolve. Every group must still resolve to exactly one winner.
  SpecConfig cfg;
  cfg.max_live_copies = 8;
  SpecRuntime rt(cfg);
  constexpr int kRoots = 3;
  constexpr int kAlts = 4;
  std::vector<LogicalId> roots;
  std::vector<std::vector<Pid>> groups;
  for (int i = 0; i < kRoots; ++i)
    roots.push_back(rt.spawn_root("root" + std::to_string(i)));
  for (int i = 0; i < kRoots; ++i) {
    std::vector<AltSpec> alts;
    for (int a = 0; a < kAlts; ++a) {
      const bool winner = a == i % kAlts;
      alts.push_back(AltSpec{
          "r" + std::to_string(i) + "a" + std::to_string(a),
          [winner, i](ProcCtx& ctx) {
            if (winner) {
              ctx.space().store<int>(0, 100 + i);
              ctx.after(vt_us(5), [](ProcCtx& c) { c.try_sync(); });
            } else {
              ctx.after(vt_us(50), [](ProcCtx& c) { c.abort(); });
            }
          },
          nullptr});
    }
    groups.push_back(rt.spawn_alternatives(roots[i], std::move(alts)));
    EXPECT_EQ(groups.back().size(), static_cast<std::size_t>(kAlts));
  }
  rt.run();
  EXPECT_GT(rt.stats().admission_deferred, 0u);
  for (int i = 0; i < kRoots; ++i) {
    // The winner committed into the root; the root is live again with the
    // winner's sentinel.
    const std::vector<Pid> live = rt.live_copies(roots[i]);
    ASSERT_EQ(live.size(), 1u) << "root " << i;
    EXPECT_EQ(rt.space_of(live[0]).load<int>(0), 100 + i) << "root " << i;
    // Exactly one child synced; the rest are terminal (aborted/eliminated).
    int synced = 0;
    for (Pid pid : groups[i]) {
      const ProcStatus st = rt.processes().status(pid);
      EXPECT_TRUE(is_terminal(st)) << "root " << i << " pid " << pid;
      if (st == ProcStatus::kSynced) ++synced;
    }
    EXPECT_EQ(synced, 1) << "root " << i;
  }
}

TEST(SchedStress, WorldsAdmissionUnboundedIsUntouched) {
  // Budget 0 = unbounded: the deferral machinery must stay cold.
  SpecRuntime rt;
  LogicalId root = rt.spawn_root("free");
  rt.spawn_alternatives(
      root, {AltSpec{"a", [](ProcCtx& ctx) { ctx.try_sync(); }, nullptr},
             AltSpec{"b", nullptr, nullptr}});
  rt.run();
  EXPECT_EQ(rt.stats().admission_deferred, 0u);
  EXPECT_EQ(rt.live_copies(root).size(), 1u);
}

}  // namespace
}  // namespace mw
