#include "proc/process_table.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
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

TEST(ProcessTable, LabelsAreInternedAndSetLabelStillWorks) {
  ProcessTable t;
  const Pid a = t.create(kNoPid, 0, "alt");
  const Pid b = t.create(a, 1, "alt");
  const Pid c = t.create(a, 1, "other");
  EXPECT_EQ(t.label_count(), 2u);  // "alt" and "other"
  for (int i = 0; i < 1000; ++i) t.create(a, 2, "alt");
  EXPECT_EQ(t.label_count(), 2u);
  t.set_label(b, "quarantined after 3 restarts");
  EXPECT_EQ(t.get(b).label, "quarantined after 3 restarts");
  EXPECT_EQ(t.get(a).label, "alt");  // a shared label is not rewritten
  EXPECT_EQ(t.get(c).label, "other");
  t.set_label(c, "alt");
  EXPECT_EQ(t.get(c).label, "alt");
  EXPECT_EQ(t.label_count(), 3u);
}

TEST(ProcessTable, ChildrenKeepCreationOrderAcross100kCreates) {
  ProcessTable t;
  constexpr std::size_t kParents = 7;
  constexpr std::size_t kCreates = 100000;
  std::vector<Pid> parents;
  for (std::size_t i = 0; i < kParents; ++i)
    parents.push_back(t.create(kNoPid));
  std::vector<std::vector<Pid>> want(kParents);
  std::uint64_t x = 12345;
  for (std::size_t i = 0; i < kCreates; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::size_t k = (x >> 33) % kParents;
    want[k].push_back(t.create(parents[k]));
  }
  for (std::size_t k = 0; k < kParents; ++k)
    EXPECT_EQ(t.get(parents[k]).children, want[k]) << "parent " << k;
}

TEST(ProcessTable, SnapshotMatchesTheRecordsCreated) {
  ProcessTable t;
  std::vector<ProcessRecord> want;
  for (Pid i = 0; i < 200; ++i) {
    ProcessRecord rec;
    rec.parent = i == 0 ? kNoPid : 1 + ((i * 2654435761u) >> 8) % i;
    rec.alt_group = i % 5;
    rec.label = "p" + std::to_string(i % 13);
    rec.pid = t.create(rec.parent, rec.alt_group, rec.label);
    ASSERT_EQ(rec.pid, i + 1);
    if (rec.parent != kNoPid) want[rec.parent - 1].children.push_back(rec.pid);
    want.push_back(rec);
  }
  for (Pid pid = 1; pid <= 200; pid += 3) {
    t.set_status(pid, ProcStatus::kRunning);
    want[pid - 1].status = ProcStatus::kRunning;
  }
  const std::vector<ProcessRecord> got = t.snapshot();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].pid, want[i].pid);
    EXPECT_EQ(got[i].parent, want[i].parent);
    EXPECT_EQ(got[i].status, want[i].status);
    EXPECT_EQ(got[i].alt_group, want[i].alt_group);
    EXPECT_EQ(got[i].label, want[i].label);
    EXPECT_EQ(got[i].children, want[i].children) << "pid " << got[i].pid;
  }
}

/// A settled 4-way block under `parent`: one winner, two eliminated
/// losers and one failed one, then retired.
std::array<Pid, 4> settled_block(ProcessTable& t, Pid parent,
                                 std::uint64_t group) {
  std::array<Pid, 4> kids;
  for (Pid& k : kids) k = t.create(parent, group, "alt");
  t.set_status(kids[0], ProcStatus::kSynced);
  t.set_status(kids[1], ProcStatus::kEliminated);
  t.set_status(kids[2], ProcStatus::kEliminated);
  t.set_status(kids[3], ProcStatus::kFailed);
  t.retire(kids);
  return kids;
}

TEST(ProcessTable, SettledBlocksShrinkToAStatusByte) {
  ProcessTable t;
  const Pid root = t.create(kNoPid, 0, "root");  // stays live
  constexpr std::size_t kBlocks = 250000;
  for (std::size_t b = 1; b <= kBlocks; ++b) {
    settled_block(t, root, b);
    if (b % 25000 == 0) {
      ASSERT_LE(t.record_count(), ProcessTable::kRecordWindow + 1)
          << "after " << b << " blocks";
    }
  }
  const Pid last = t.create(root);
  ASSERT_EQ(last, 2 + 4 * kBlocks);
  EXPECT_EQ(t.process_count(), last);
  EXPECT_EQ(t.live_count(), 2u);  // the root and `last`
  EXPECT_LE(t.record_count(), ProcessTable::kRecordWindow + t.live_count());

  // Pid 3, the first block's first loser, kept only its status; its pid
  // is still never handed out again.
  EXPECT_TRUE(t.exists(3));
  EXPECT_FALSE(t.has_record(3));
  EXPECT_EQ(t.status(3), ProcStatus::kEliminated);
  EXPECT_EQ(t.complete(3), Completion::kFalse);
  EXPECT_EQ(t.complete(2), Completion::kTrue);
  EXPECT_EQ(t.complete(5), Completion::kFalse);
  EXPECT_FALSE(t.set_status(3, ProcStatus::kRunning));
  t.set_label(3, "ignored");  // a retired record takes no label

  // The root lists exactly its held children, in creation order: the
  // newest window of blocks.
  const ProcessRecord rec = t.get(root);
  ASSERT_EQ(rec.children.size(), t.record_count() - 1);
  EXPECT_EQ(rec.children.back(), last);
  EXPECT_GT(rec.children.front(), last - ProcessTable::kRecordWindow);
  for (std::size_t i = 1; i < rec.children.size(); ++i)
    ASSERT_EQ(rec.children[i], rec.children[i - 1] + 1);
  EXPECT_TRUE(t.has_record(rec.children.front()));
  EXPECT_FALSE(t.has_record(rec.children.front() - 1));

  const std::vector<ProcessRecord> all = t.snapshot();
  ASSERT_EQ(all.size(), t.record_count());
  EXPECT_EQ(all.front().pid, root);
  EXPECT_EQ(all[1].pid, rec.children.front());
  EXPECT_EQ(all.back().pid, last);
}

TEST(ProcessTable, LivePidsAndTheWindowKeepTheirRecords) {
  ProcessTable t;
  const Pid root = t.create(kNoPid);
  const Pid live = t.create(root, 1, "straggler");
  t.retire(std::array<Pid, 1>{live});  // not terminal: ignored
  const std::array<Pid, 4> first = settled_block(t, root, 2);
  // Inside the window a retired record still answers get().
  EXPECT_EQ(t.get(first[1]).alt_group, 2u);
  EXPECT_EQ(t.get(root).children.size(), 5u);
  for (std::uint64_t g = 3; t.process_count() <= ProcessTable::kRecordWindow + 8;
       ++g)
    settled_block(t, root, g);
  EXPECT_FALSE(t.has_record(first[0]));
  ASSERT_TRUE(t.has_record(live));
  EXPECT_EQ(t.get(live).label, "straggler");
  EXPECT_EQ(t.get(root).children.front(), live);
  // Settling it late retires it at once: it is already out of the window.
  t.set_status(live, ProcStatus::kFailed);
  t.retire(std::array<Pid, 1>{live});
  EXPECT_FALSE(t.has_record(live));
  EXPECT_EQ(t.status(live), ProcStatus::kFailed);
  EXPECT_NE(t.get(root).children.front(), live);
}

TEST(ProcessTable, RetiringAMiddleChildKeepsTheSiblingOrder) {
  ProcessTable t;
  const Pid root = t.create(kNoPid);
  const Pid a = t.create(root);
  const Pid b = t.create(root);
  const Pid c = t.create(root);
  t.set_status(b, ProcStatus::kEliminated);
  t.retire(std::array<Pid, 1>{b});
  for (Pid i = 0; i < ProcessTable::kRecordWindow; ++i) t.create(kNoPid);
  EXPECT_FALSE(t.has_record(b));
  EXPECT_EQ(t.get(root).children, (std::vector<Pid>{a, c}));
  const Pid d = t.create(root);
  EXPECT_EQ(t.get(root).children, (std::vector<Pid>{a, c, d}));
}

TEST(ProcessTable, RetiringAChildOfALaterParentLeavesThatParentAlone) {
  ProcessTable t;
  const Pid early = t.create(3);  // its parent pid is not handed out yet
  t.create(kNoPid);
  const Pid parent = t.create(kNoPid);
  ASSERT_EQ(parent, 3u);
  const Pid kid = t.create(parent);
  t.set_status(early, ProcStatus::kEliminated);
  t.retire(std::array<Pid, 1>{early});
  for (Pid i = 0; i < ProcessTable::kRecordWindow; ++i) t.create(kNoPid);
  EXPECT_FALSE(t.has_record(early));
  EXPECT_EQ(t.get(parent).children, (std::vector<Pid>{kid}));
}

TEST(ProcessTableDeath, UnknownPidAborts) {
  ProcessTable t;
  const Pid p = t.create(kNoPid);
  EXPECT_DEATH((void)t.get(kNoPid), "MW_CHECK");
  EXPECT_DEATH((void)t.status(p + 1), "MW_CHECK");
}

TEST(ProcessTableDeath, GetOfARetiredPidAborts) {
  ProcessTable t;
  const Pid p = t.create(kNoPid);
  t.set_status(p, ProcStatus::kSynced);
  for (Pid i = 0; i < ProcessTable::kRecordWindow; ++i) t.create(kNoPid);
  t.retire(std::array<Pid, 1>{p});
  EXPECT_DEATH((void)t.get(p), "MW_CHECK");
}

}  // namespace
}  // namespace mw
