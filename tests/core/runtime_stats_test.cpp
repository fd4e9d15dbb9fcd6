#include <gtest/gtest.h>

#include "core/alt.hpp"
#include "core/alt_context.hpp"
#include "core/runtime.hpp"

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

Alternative spin(std::string name, VDuration work, bool succeed = true) {
  return Alternative{std::move(name), nullptr,
                     [work, succeed](AltContext& ctx) {
                       ctx.work(work);
                       if (!succeed) ctx.fail("no");
                     },
                     nullptr};
}

TEST(RuntimeStats, StartsEmpty) {
  Runtime rt(virtual_config());
  EXPECT_EQ(rt.stats().blocks_run, 0u);
  EXPECT_DOUBLE_EQ(rt.stats().waste_ratio(), 0.0);
}

TEST(RuntimeStats, WinningBlockAccounted) {
  Runtime rt(virtual_config());
  World root = rt.make_root();
  run_alternatives(rt, root, {spin("w", 10), spin("l", 500)});
  const RuntimeStats& s = rt.stats();
  EXPECT_EQ(s.blocks_run, 1u);
  EXPECT_EQ(s.blocks_won, 1u);
  EXPECT_EQ(s.blocks_failed, 0u);
  EXPECT_EQ(s.alternatives_spawned, 2u);
  EXPECT_EQ(s.alternatives_eliminated, 1u);
  EXPECT_EQ(s.alternatives_aborted, 0u);
  EXPECT_EQ(s.total_elapsed, 10);
  // The loser ran from 0 until the winner's sync at t=10.
  EXPECT_EQ(s.wasted_work, 10);
}

TEST(RuntimeStats, AbortsAndEliminationsDistinguished) {
  Runtime rt(virtual_config());
  World root = rt.make_root();
  run_alternatives(
      rt, root,
      {spin("w", 100), spin("aborts", 5, false), spin("killed", 1000)});
  const RuntimeStats& s = rt.stats();
  EXPECT_EQ(s.alternatives_aborted, 1u);
  EXPECT_EQ(s.alternatives_eliminated, 1u);
  EXPECT_DOUBLE_EQ(s.waste_ratio(), 2.0 / 3.0);
}

TEST(RuntimeStats, FailedBlockAccounted) {
  Runtime rt(virtual_config());
  World root = rt.make_root();
  run_alternatives(rt, root, {spin("a", 5, false), spin("b", 7, false)});
  EXPECT_EQ(rt.stats().blocks_failed, 1u);
  EXPECT_EQ(rt.stats().blocks_won, 0u);
  EXPECT_EQ(rt.stats().alternatives_aborted, 2u);
}

TEST(RuntimeStats, AccumulatesAcrossBlocks) {
  Runtime rt(virtual_config());
  for (int i = 0; i < 5; ++i) {
    World root = rt.make_root();
    run_alternatives(rt, root, {spin("a", 10), spin("b", 20)});
  }
  EXPECT_EQ(rt.stats().blocks_run, 5u);
  EXPECT_EQ(rt.stats().alternatives_spawned, 10u);
  EXPECT_EQ(rt.stats().total_elapsed, 50);
}

TEST(RuntimeStats, OverheadLedgerMatchesOutcomes) {
  RuntimeConfig cfg = virtual_config();
  cfg.cost = CostModel::calibrated_hp();
  Runtime rt(cfg);
  World root = rt.make_root();
  root.space().store<int>(0, 1);
  auto out = run_alternatives(rt, root, {spin("a", 10), spin("b", 20)});
  EXPECT_EQ(rt.stats().total_overhead, out.overhead.total());
  EXPECT_GT(rt.stats().total_overhead, 0);
}

TEST(RuntimeStats, PoolBackendAlsoRecords) {
  RuntimeConfig cfg;
  cfg.backend = AltBackend::kPool;
  cfg.pool.workers = 2;
  cfg.page_size = 64;
  cfg.num_pages = 32;
  Runtime rt(cfg);
  World root = rt.make_root();
  run_alternatives(rt, root,
                   {Alternative{"only", nullptr, [](AltContext&) {}, nullptr}});
  EXPECT_EQ(rt.stats().blocks_run, 1u);
  EXPECT_EQ(rt.stats().blocks_won, 1u);
}

TEST(RuntimeStats, SettledBlocksRetireTheirChildrenPastTheWindow) {
  Runtime rt(virtual_config());
  World root = rt.make_root();
  const ProcessTable& table = rt.processes();
  const std::size_t blocks = ProcessTable::kRecordWindow / 4 + 64;
  AltOutcome first;
  for (std::size_t b = 0; b < blocks; ++b) {
    AltOutcome out = run_alternatives(
        rt, root,
        {spin("w", 1), spin("l", 5), spin("a", 1, false), spin("k", 9)});
    ASSERT_TRUE(out.winner.has_value());
    if (b == 0) first = std::move(out);
  }
  EXPECT_EQ(rt.stats().blocks_won, blocks);
  EXPECT_EQ(table.process_count(), 1 + 4 * blocks);
  EXPECT_LE(table.record_count(), ProcessTable::kRecordWindow + 1);
  EXPECT_TRUE(table.has_record(root.pid()));
  // The first block's children kept their fates, not their records.
  for (const AltReport& a : first.alts) {
    EXPECT_FALSE(table.has_record(a.pid));
    EXPECT_EQ(table.complete(a.pid),
              a.success ? Completion::kTrue : Completion::kFalse);
  }
}

}  // namespace
}  // namespace mw
