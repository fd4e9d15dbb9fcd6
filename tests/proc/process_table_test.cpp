#include "proc/process_table.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace mw {
namespace {

TEST(ProcessTable, CreateAssignsFreshPids) {
  ProcessTable t;
  Pid a = t.create(kNoPid);
  Pid b = t.create(kNoPid);
  EXPECT_NE(a, kNoPid);
  EXPECT_NE(a, b);
  EXPECT_EQ(t.process_count(), 2u);
}

TEST(ProcessTable, ParentChildLinks) {
  ProcessTable t;
  Pid p = t.create(kNoPid);
  Pid c1 = t.create(p);
  Pid c2 = t.create(p);
  auto rec = t.get(p);
  EXPECT_EQ(rec.children, (std::vector<Pid>{c1, c2}));
  EXPECT_EQ(t.get(c1).parent, p);
}

TEST(ProcessTable, StatusLifecycle) {
  ProcessTable t;
  Pid p = t.create(kNoPid);
  EXPECT_EQ(t.status(p), ProcStatus::kReady);
  EXPECT_TRUE(t.set_status(p, ProcStatus::kRunning));
  EXPECT_TRUE(t.set_status(p, ProcStatus::kBlocked));
  EXPECT_TRUE(t.set_status(p, ProcStatus::kRunning));
  EXPECT_TRUE(t.set_status(p, ProcStatus::kSynced));
  EXPECT_EQ(t.status(p), ProcStatus::kSynced);
}

TEST(ProcessTable, TerminalStatesAreSticky) {
  ProcessTable t;
  Pid p = t.create(kNoPid);
  t.set_status(p, ProcStatus::kFailed);
  EXPECT_FALSE(t.set_status(p, ProcStatus::kRunning));
  EXPECT_FALSE(t.set_status(p, ProcStatus::kEliminated));
  EXPECT_EQ(t.status(p), ProcStatus::kFailed);
}

TEST(ProcessTable, CompletionOracle) {
  ProcessTable t;
  Pid a = t.create(kNoPid);
  Pid b = t.create(kNoPid);
  Pid c = t.create(kNoPid);
  EXPECT_EQ(t.complete(a), Completion::kIndeterminate);
  t.set_status(a, ProcStatus::kSynced);
  t.set_status(b, ProcStatus::kFailed);
  t.set_status(c, ProcStatus::kEliminated);
  EXPECT_EQ(t.complete(a), Completion::kTrue);
  EXPECT_EQ(t.complete(b), Completion::kFalse);
  EXPECT_EQ(t.complete(c), Completion::kFalse);
}

TEST(ProcessTable, ListenersFireOnTransition) {
  ProcessTable t;
  std::vector<std::pair<Pid, ProcStatus>> events;
  t.subscribe([&](Pid pid, ProcStatus, ProcStatus now) {
    events.push_back({pid, now});
  });
  Pid p = t.create(kNoPid);
  t.set_status(p, ProcStatus::kRunning);
  t.set_status(p, ProcStatus::kSynced);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], std::make_pair(p, ProcStatus::kRunning));
  EXPECT_EQ(events[1], std::make_pair(p, ProcStatus::kSynced));
}

TEST(ProcessTable, ListenerNotFiredOnRejectedTransition) {
  ProcessTable t;
  int count = 0;
  t.subscribe([&](Pid, ProcStatus, ProcStatus) { ++count; });
  Pid p = t.create(kNoPid);
  t.set_status(p, ProcStatus::kSynced);
  t.set_status(p, ProcStatus::kEliminated);  // rejected: already terminal
  EXPECT_EQ(count, 1);
}

TEST(ProcessTable, LiveCountExcludesTerminal) {
  ProcessTable t;
  Pid a = t.create(kNoPid);
  Pid b = t.create(kNoPid);
  t.create(kNoPid);
  EXPECT_EQ(t.live_count(), 3u);
  t.set_status(a, ProcStatus::kSynced);
  t.set_status(b, ProcStatus::kEliminated);
  EXPECT_EQ(t.live_count(), 1u);
}

TEST(ProcessTable, ExistsAndLabels) {
  ProcessTable t;
  Pid p = t.create(kNoPid, 7, "rootfinder");
  EXPECT_TRUE(t.exists(p));
  EXPECT_FALSE(t.exists(9999));
  EXPECT_EQ(t.get(p).alt_group, 7u);
  EXPECT_EQ(t.get(p).label, "rootfinder");
}

TEST(ProcessTable, ListenerRunsOutsideLock) {
  // A listener that re-enters the table must not deadlock.
  ProcessTable t;
  Pid p = t.create(kNoPid);
  t.subscribe([&](Pid pid, ProcStatus, ProcStatus) {
    (void)t.status(pid);  // re-entrant read
  });
  EXPECT_TRUE(t.set_status(p, ProcStatus::kRunning));
}

TEST(ProcessTable, NoPidAndPidsPastTheEndDoNotExist) {
  ProcessTable t;
  EXPECT_FALSE(t.exists(kNoPid));
  EXPECT_FALSE(t.exists(1));
  const Pid a = t.create(kNoPid);
  const Pid b = t.create(a);
  EXPECT_FALSE(t.exists(kNoPid));
  EXPECT_TRUE(t.exists(a));
  EXPECT_TRUE(t.exists(b));
  EXPECT_FALSE(t.exists(b + 1));  // the next pid, not yet created
  EXPECT_FALSE(t.exists(static_cast<Pid>(-1)));
  // A parent pid the table never handed out links nothing.
  const Pid orphan = t.create(b + 5);
  EXPECT_EQ(t.get(orphan).parent, b + 5);
  EXPECT_EQ(t.process_count(), 3u);
}

TEST(ProcessTable, ManyCreatesKeepTheirLinks) {
  ProcessTable t;
  constexpr Pid kCount = 100000;
  const Pid root = t.create(kNoPid);
  Pid prev = root;
  for (Pid i = 1; i < kCount; ++i) {
    // Every odd pid hangs off the root, every even one off its predecessor.
    const Pid parent = i % 2 ? root : prev;
    prev = t.create(parent, i);
    ASSERT_EQ(prev, i + 1);
  }
  EXPECT_EQ(t.process_count(), kCount);
  EXPECT_EQ(t.get(root).children.size(), kCount / 2);
  for (Pid pid = 2; pid <= kCount; pid += 9973) {
    const ProcessRecord rec = t.get(pid);
    EXPECT_EQ(rec.pid, pid);
    EXPECT_EQ(rec.alt_group, pid - 1);
    EXPECT_EQ(rec.parent, (pid - 1) % 2 ? root : pid - 1);
  }
  EXPECT_EQ(t.get(kCount - 2).children, (std::vector<Pid>{kCount - 1}));
  const std::vector<ProcessRecord> all = t.snapshot();
  ASSERT_EQ(all.size(), kCount);
  for (Pid pid = 1; pid <= kCount; ++pid) ASSERT_EQ(all[pid - 1].pid, pid);
}

TEST(ProcessTableDeath, UnknownPidAborts) {
  ProcessTable t;
  const Pid p = t.create(kNoPid);
  EXPECT_DEATH((void)t.get(kNoPid), "MW_CHECK");
  EXPECT_DEATH((void)t.status(p + 1), "MW_CHECK");
}

}  // namespace
}  // namespace mw
