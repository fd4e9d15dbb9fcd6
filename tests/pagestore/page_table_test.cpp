#include "pagestore/page_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <unordered_set>

#include "core/runtime_auditor.hpp"
#include "pagestore/page_pool.hpp"
#include "proc/process_table.hpp"

namespace mw {
namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<int> v) {
  std::vector<std::uint8_t> out;
  for (int x : v) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

std::vector<std::uint8_t> read_vec(const PageTable& t, std::uint64_t off,
                                   std::size_t n) {
  std::vector<std::uint8_t> out(n);
  t.read(off, out);
  return out;
}

TEST(PageTable, FreshTableReadsZero) {
  PageTable t(64, 4);
  EXPECT_EQ(read_vec(t, 0, 16), std::vector<std::uint8_t>(16, 0));
  EXPECT_EQ(t.resident_pages(), 0u);
}

TEST(PageTable, WriteThenReadBack) {
  PageTable t(64, 4);
  auto data = bytes({1, 2, 3, 4});
  t.write(10, data);
  EXPECT_EQ(read_vec(t, 10, 4), data);
  EXPECT_EQ(t.resident_pages(), 1u);
}

TEST(PageTable, WriteSpanningPages) {
  PageTable t(8, 4);
  std::vector<std::uint8_t> data(20);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i + 1);
  t.write(4, data);  // spans pages 0,1,2
  EXPECT_EQ(read_vec(t, 4, 20), data);
  EXPECT_EQ(t.resident_pages(), 3u);
}

TEST(PageTable, ForkSharesAllPages) {
  PageTable parent(64, 8);
  parent.write(0, bytes({9}));
  parent.write(64 * 3, bytes({7}));
  PageTable child = parent.fork();
  EXPECT_EQ(child.shared_pages_with(parent), 2u);
  EXPECT_EQ(read_vec(child, 0, 1), bytes({9}));
}

TEST(PageTable, ChildWriteDoesNotTouchParent) {
  PageTable parent(64, 4);
  parent.write(0, bytes({1}));
  PageTable child = parent.fork();
  child.write(0, bytes({2}));
  EXPECT_EQ(read_vec(parent, 0, 1), bytes({1}));
  EXPECT_EQ(read_vec(child, 0, 1), bytes({2}));
}

TEST(PageTable, ParentWriteDoesNotTouchChild) {
  PageTable parent(64, 4);
  parent.write(0, bytes({1}));
  PageTable child = parent.fork();
  parent.write(0, bytes({3}));
  EXPECT_EQ(read_vec(child, 0, 1), bytes({1}));
}

TEST(PageTable, CowBreaksOnlyWrittenPage) {
  PageTable parent(64, 8);
  for (int p = 0; p < 4; ++p) parent.write(64 * p, bytes({p + 1}));
  PageTable child = parent.fork();
  child.write(64, bytes({99}));
  EXPECT_EQ(child.shared_pages_with(parent), 3u);
  EXPECT_EQ(child.stats().pages_copied, 1u);
}

TEST(PageTable, RepeatedWritesCopyOnce) {
  PageTable parent(64, 4);
  parent.write(0, bytes({1}));
  PageTable child = parent.fork();
  for (int i = 0; i < 10; ++i) child.write(0, bytes({i}));
  EXPECT_EQ(child.stats().pages_copied, 1u);
}

TEST(PageTable, WriteToOwnPageNeedsNoCopy) {
  PageTable t(64, 4);
  t.write(0, bytes({1}));
  t.write(1, bytes({2}));
  EXPECT_EQ(t.stats().pages_copied, 0u);
  EXPECT_EQ(t.stats().pages_allocated, 1u);
}

TEST(PageTable, SiblingForksDivergeIndependently) {
  PageTable parent(64, 4);
  parent.write(0, bytes({5}));
  PageTable a = parent.fork();
  PageTable b = parent.fork();
  a.write(0, bytes({6}));
  b.write(0, bytes({7}));
  EXPECT_EQ(read_vec(parent, 0, 1), bytes({5}));
  EXPECT_EQ(read_vec(a, 0, 1), bytes({6}));
  EXPECT_EQ(read_vec(b, 0, 1), bytes({7}));
}

TEST(PageTable, AdoptReplacesContent) {
  PageTable parent(64, 4);
  parent.write(0, bytes({1}));
  PageTable child = parent.fork();
  child.write(0, bytes({42}));
  child.write(64, bytes({43}));
  parent.adopt(std::move(child));
  EXPECT_EQ(read_vec(parent, 0, 1), bytes({42}));
  EXPECT_EQ(read_vec(parent, 64, 1), bytes({43}));
}

TEST(PageTable, AdoptMergesStats) {
  PageTable parent(64, 4);
  parent.write(0, bytes({1}));  // 1 allocation
  PageTable child = parent.fork();
  child.write(0, bytes({2}));   // 1 copy
  child.write(64, bytes({3}));  // 1 allocation
  parent.adopt(std::move(child));
  EXPECT_EQ(parent.stats().pages_allocated, 2u);
  EXPECT_EQ(parent.stats().pages_copied, 1u);
}

TEST(PageTable, DiffFindsChangedPages) {
  PageTable parent(64, 8);
  parent.write(0, bytes({1}));
  parent.write(64, bytes({2}));
  PageTable child = parent.fork();
  child.write(64, bytes({9}));
  child.write(64 * 5, bytes({8}));
  auto d = child.diff(parent);
  EXPECT_EQ(d, (std::vector<std::size_t>{1, 5}));
}

TEST(PageTable, WriteFractionTracksTouchedShare) {
  PageTable parent(64, 10);
  for (int p = 0; p < 4; ++p) parent.write(64 * p, bytes({1}));
  PageTable child = parent.fork();
  child.write(0, bytes({2}));
  // 1 touched of 4 resident.
  EXPECT_DOUBLE_EQ(child.write_fraction(), 0.25);
}

TEST(PageTable, WriteFractionEmptyIsZero) {
  PageTable t(64, 4);
  EXPECT_DOUBLE_EQ(t.write_fraction(), 0.0);
}

TEST(PageTable, GrandchildForkChains) {
  PageTable a(64, 4);
  a.write(0, bytes({1}));
  PageTable b = a.fork();
  b.write(64, bytes({2}));
  PageTable c = b.fork();
  c.write(128, bytes({3}));
  EXPECT_EQ(read_vec(c, 0, 1), bytes({1}));
  EXPECT_EQ(read_vec(c, 64, 1), bytes({2}));
  EXPECT_EQ(read_vec(c, 128, 1), bytes({3}));
  // Page 0 shared across all three generations.
  EXPECT_EQ(c.shared_pages_with(a), 1u);
  EXPECT_EQ(c.shared_pages_with(b), 2u);
}

// Nested speculation: a 3-level fork chain adopted bottom-up must merge
// each level's accounting exactly once — no drops, no double counts.
TEST(PageTable, NestedAdoptMergesStatsExactlyOnce) {
  PageTable root(64, 8);
  root.write(0, bytes({1}));  // root: 1 allocation
  PageTable mid = root.fork();
  mid.write(0, bytes({2}));   // mid: 1 copy
  mid.write(64, bytes({3}));  // mid: 1 allocation
  PageTable leaf = mid.fork();
  leaf.write(64, bytes({4}));   // leaf: 1 copy
  leaf.write(128, bytes({5}));  // leaf: 1 allocation
  leaf.write(128, bytes({6}));  // leaf: in-place, no new alloc/copy

  mid.adopt(std::move(leaf));
  EXPECT_EQ(mid.stats().pages_allocated, 2u);
  EXPECT_EQ(mid.stats().pages_copied, 2u);
  EXPECT_EQ(mid.stats().page_writes, 5u);

  root.adopt(std::move(mid));
  EXPECT_EQ(root.stats().pages_allocated, 3u);
  EXPECT_EQ(root.stats().pages_copied, 2u);
  EXPECT_EQ(root.stats().bytes_copied, 2u * 64u);
  EXPECT_EQ(root.stats().page_writes, 6u);
  // Every frame acquisition is accounted as either a pool hit or a miss.
  EXPECT_EQ(root.stats().pool_hits + root.stats().pool_misses,
            root.stats().pages_allocated + root.stats().pages_copied);
  // Adopted content is the leaf's.
  EXPECT_EQ(read_vec(root, 0, 1), bytes({2}));
  EXPECT_EQ(read_vec(root, 64, 1), bytes({4}));
  EXPECT_EQ(read_vec(root, 128, 1), bytes({6}));
}

TEST(PageTable, AdoptResetsWriteFractionClock) {
  PageTable parent(64, 8);
  for (int p = 0; p < 4; ++p) parent.write(64 * p, bytes({1}));
  PageTable child = parent.fork();
  child.write(0, bytes({2}));
  parent.adopt(std::move(child));
  // The commit restarts the "written since last fork/adopt" measurement.
  EXPECT_DOUBLE_EQ(parent.write_fraction(), 0.0);
  parent.write(64, bytes({3}));
  EXPECT_DOUBLE_EQ(parent.write_fraction(), 0.25);
}

TEST(PageTable, PoolRecyclesFramesFromDroppedWorlds) {
  const std::size_t kPageSize = 104;  // private size class for this test
  PagePool::global().clear();
  PageTable parent(kPageSize, 8);
  std::vector<std::uint8_t> one{1};
  for (int p = 0; p < 4; ++p) parent.write(kPageSize * p, one);
  EXPECT_EQ(parent.stats().pool_hits, 0u);
  EXPECT_EQ(parent.stats().pool_misses, 4u);
  {
    // A speculative child breaks sharing on every page, then is eliminated.
    PageTable child = parent.fork();
    for (int p = 0; p < 4; ++p) child.write(kPageSize * p, one);
    EXPECT_EQ(child.stats().pages_copied, 4u);
  }
  // The eliminated child's frames were salvaged; new allocations reuse them.
  PageTable next = parent.fork();
  for (int p = 4; p < 8; ++p) next.write(kPageSize * p, one);
  EXPECT_EQ(next.stats().pages_allocated, 4u);
  EXPECT_EQ(next.stats().pool_hits, 4u);
  EXPECT_EQ(next.stats().pool_misses, 0u);
}

TEST(PageTable, RecycledFramesReadAsZero) {
  const std::size_t kPageSize = 88;  // private size class for this test
  PagePool::global().clear();
  {
    PageTable dirty(kPageSize, 2);
    std::vector<std::uint8_t> junk(kPageSize, 0xEE);
    dirty.write(0, junk);
    dirty.write(kPageSize, junk);
  }  // both dirty frames land in the pool
  PageTable fresh(kPageSize, 2);
  std::vector<std::uint8_t> got(kPageSize);
  fresh.read(0, got);
  EXPECT_EQ(got, std::vector<std::uint8_t>(kPageSize, 0));
  fresh.write(0, bytes({9}));  // zero-fill-on-demand from a recycled frame
  EXPECT_EQ(fresh.stats().pool_hits, 1u);
  fresh.read(0, got);
  std::vector<std::uint8_t> want(kPageSize, 0);
  want[0] = 9;
  EXPECT_EQ(got, want);
}

// Every frame a table acquires is a pool hit or a pool miss.
void expect_frames_accounted(const PageTable& t) {
  EXPECT_EQ(t.stats().pool_hits + t.stats().pool_misses,
            t.stats().pages_allocated + t.stats().pages_copied);
}

TEST(PageTable, BlindWriteBreaksSharingWithoutCopying) {
  PageTable parent(64, 4);
  parent.write(0, std::vector<std::uint8_t>(64, 0x11));
  PageTable child = parent.fork();
  child.write(0, std::vector<std::uint8_t>(64, 0x22));
  EXPECT_EQ(child.stats().pages_copied, 1u);
  EXPECT_EQ(child.stats().bytes_copied, 0u);
  EXPECT_EQ(child.stats().pages_allocated, 0u);
  expect_frames_accounted(child);
  EXPECT_EQ(read_vec(child, 0, 64), std::vector<std::uint8_t>(64, 0x22));
  EXPECT_EQ(read_vec(parent, 0, 64), std::vector<std::uint8_t>(64, 0x11));
  EXPECT_EQ(child.shared_pages_with(parent), 0u);
}

TEST(PageTable, UnalignedSpanCopiesOnlyItsEdgePages) {
  PageTable parent(64, 4);
  parent.write(0, std::vector<std::uint8_t>(256, 0x11));
  PageTable child = parent.fork();
  // Bytes [32, 160): the tail of page 0, all of page 1, the head of page 2.
  child.write(32, std::vector<std::uint8_t>(128, 0x22));
  EXPECT_EQ(child.stats().pages_copied, 3u);
  EXPECT_EQ(child.stats().bytes_copied, 2u * 64u);  // pages 0 and 2 only
  expect_frames_accounted(child);
  std::vector<std::uint8_t> want(256, 0x11);
  std::fill(want.begin() + 32, want.begin() + 160, 0x22);
  EXPECT_EQ(read_vec(child, 0, 256), want);
  EXPECT_EQ(read_vec(parent, 0, 256), std::vector<std::uint8_t>(256, 0x11));
  EXPECT_EQ(child.diff(parent), (std::vector<std::size_t>{0, 1, 2}));
}

TEST(PageTable, RecycledDirtyFrameServesABlindWrite) {
  const std::size_t kPageSize = 72;  // private size class for this test
  PagePool::global().clear();
  {
    PageTable dirty(kPageSize, 2);
    dirty.write(0, std::vector<std::uint8_t>(2 * kPageSize, 0xEE));
  }  // both dirty frames land in the pool
  PageTable parent(kPageSize, 2);
  std::vector<std::uint8_t> page(kPageSize);
  for (std::size_t b = 0; b < kPageSize; ++b)
    page[b] = static_cast<std::uint8_t>(b + 1);
  parent.write(0, page);  // blind write into an absent slot
  EXPECT_EQ(parent.stats().pages_allocated, 1u);
  EXPECT_EQ(parent.stats().pool_hits, 1u);
  EXPECT_EQ(read_vec(parent, 0, kPageSize), page);
  EXPECT_EQ(read_vec(parent, kPageSize, kPageSize),
            std::vector<std::uint8_t>(kPageSize, 0));

  PageTable child = parent.fork();
  std::reverse(page.begin(), page.end());
  child.write(0, page);  // blind COW break into the second dirty frame
  EXPECT_EQ(child.stats().pages_copied, 1u);
  EXPECT_EQ(child.stats().bytes_copied, 0u);
  EXPECT_EQ(child.stats().pool_hits, 1u);
  expect_frames_accounted(child);
  EXPECT_EQ(read_vec(child, 0, kPageSize), page);
}

// --- scoped (borrowing) forks ----------------------------------------------
//
// A kPool child is forked with fork_scoped(): its leaf path copies borrow
// the parent's pages instead of counting them, and adopt() settles the
// borrowing. Nothing observable may differ from a counted fork.

constexpr std::size_t kScopedPageSize = 32;
constexpr std::size_t kScopedPages = 3 * 64 + 5;  // a depth-2 tree

// A parent with every other page resident, each holding its index.
PageTable populated_parent() {
  PageTable t(kScopedPageSize, kScopedPages);
  for (std::size_t p = 0; p < kScopedPages; p += 2)
    t.write(p * kScopedPageSize, bytes({static_cast<int>(p & 0xFF)}));
  return t;
}

// Partial, whole-page (blind), repeated and demand writes over three
// leaves.
void scoped_write_mix(PageTable& t, int salt) {
  const std::vector<std::uint8_t> whole(kScopedPageSize,
                                        static_cast<std::uint8_t>(salt));
  for (std::size_t p : {0u, 2u, 3u, 64u, 66u, 130u, 131u, 194u}) {
    t.write(p * kScopedPageSize + 5, bytes({salt, salt + 1}));
    t.write(p * kScopedPageSize + 9, bytes({salt + 2}));  // now in place
  }
  for (std::size_t p : {4u, 65u, 128u}) t.write(p * kScopedPageSize, whole);
}

std::int64_t reachable_pages(std::initializer_list<const PageTable*> tables) {
  std::unordered_set<const Page*> pages;
  for (const PageTable* t : tables) t->collect_pages(pages);
  return static_cast<std::int64_t>(pages.size());
}

TEST(PageTableScoped, WriteToABorrowedSlotCopiesExactlyAsACountedFork) {
  PageTable parent = populated_parent();
  const std::vector<std::uint8_t> before =
      read_vec(parent, 0, parent.size_bytes());
  PageTable counted = parent.fork();
  PageTable scoped = parent.fork_scoped();
  scoped_write_mix(counted, 7);
  scoped_write_mix(scoped, 7);

  EXPECT_EQ(scoped.stats().pages_copied, counted.stats().pages_copied);
  EXPECT_EQ(scoped.stats().bytes_copied, counted.stats().bytes_copied);
  EXPECT_EQ(scoped.stats().pages_allocated, counted.stats().pages_allocated);
  EXPECT_EQ(scoped.stats().page_writes, counted.stats().page_writes);
  // Odd pages are absent in the parent: 6 partial and 2 blind copies, and
  // 3 demand allocations.
  EXPECT_EQ(scoped.stats().pages_copied, 8u);
  EXPECT_EQ(scoped.stats().bytes_copied, 6u * kScopedPageSize);
  EXPECT_EQ(scoped.stats().pages_allocated, 3u);
  EXPECT_EQ(read_vec(scoped, 0, scoped.size_bytes()),
            read_vec(counted, 0, counted.size_bytes()));
  EXPECT_EQ(scoped.shared_pages_with(parent),
            counted.shared_pages_with(parent));
  EXPECT_EQ(scoped.diff(parent), counted.diff(parent));
  EXPECT_EQ(read_vec(parent, 0, parent.size_bytes()), before);
}

TEST(PageTableScoped, AdoptTransfersCountsWhenTheChildAloneHoldsItsSources) {
  const std::int64_t baseline = Page::live_instances();
  {
    PageTable parent = populated_parent();
    PageTable child = parent.fork_scoped();
    scoped_write_mix(child, 9);
    const std::vector<std::uint8_t> want =
        read_vec(child, 0, child.size_bytes());
    parent.adopt(std::move(child));
    // The pages the child overwrote died with the parent's old leaves; the
    // rest are counted by the adopted map alone.
    EXPECT_EQ(Page::live_instances() - baseline, reachable_pages({&parent}));
    EXPECT_EQ(Page::live_instances() - baseline,
              static_cast<std::int64_t>(parent.resident_pages()));
    EXPECT_EQ(read_vec(parent, 0, parent.size_bytes()), want);
    // The settled map is an ordinary one: a fork of it writes and drops
    // without disturbing the count.
    {
      PageTable next = parent.fork();
      scoped_write_mix(next, 11);
    }
    EXPECT_EQ(read_vec(parent, 0, parent.size_bytes()), want);
    EXPECT_EQ(Page::live_instances() - baseline, reachable_pages({&parent}));
  }
  EXPECT_EQ(Page::live_instances(), baseline);
}

TEST(PageTableScoped, AdoptCountsWhenTheSourceIsStillHeldElsewhere) {
  RuntimeAuditor auditor;
  {
    std::optional<PageTable> parent = populated_parent();
    const PageTable other = parent->fork();  // keeps the old leaves alive
    const std::vector<std::uint8_t> before =
        read_vec(other, 0, other.size_bytes());
    PageTable child = parent->fork_scoped();
    scoped_write_mix(child, 13);
    parent->adopt(std::move(child));
    EXPECT_EQ(Page::live_instances() - auditor.baseline_pages(),
              reachable_pages({&*parent, &other}));
    // The adopted map counted the pages it shares with `other`, so
    // dropping it leaves every page of `other` alive.
    parent.reset();
    EXPECT_EQ(Page::live_instances() - auditor.baseline_pages(),
              reachable_pages({&other}));
    EXPECT_EQ(read_vec(other, 0, other.size_bytes()), before);
  }
  EXPECT_TRUE(auditor.run(ProcessTable{}).clean());
}

TEST(PageTableScoped, NestedScopedBlocksLeaveTheAuditorClean) {
  RuntimeAuditor auditor;
  {
    PageTable parent = populated_parent();
    PageTable child = parent.fork_scoped();
    scoped_write_mix(child, 17);
    // The grandchildren borrow from the child's leaves, some of whose
    // slots the child itself borrows from the parent.
    PageTable grand = child.fork_scoped();
    PageTable loser = child.fork_scoped();
    grand.write(2 * kScopedPageSize, bytes({42}));
    grand.write(6 * kScopedPageSize, bytes({43}));
    loser.write(6 * kScopedPageSize, bytes({44}));
    loser = PageTable(kScopedPageSize, kScopedPages);  // dropped first
    child.adopt(std::move(grand));
    child.write(8 * kScopedPageSize, bytes({45}));
    parent.adopt(std::move(child));

    EXPECT_EQ(read_vec(parent, 2 * kScopedPageSize, 1), bytes({42}));
    EXPECT_EQ(read_vec(parent, 6 * kScopedPageSize, 1), bytes({43}));
    EXPECT_EQ(read_vec(parent, 8 * kScopedPageSize, 1), bytes({45}));
    EXPECT_EQ(read_vec(parent, 10 * kScopedPageSize, 1), bytes({10}));
    EXPECT_EQ(Page::live_instances() - auditor.baseline_pages(),
              reachable_pages({&parent}));
    RuntimeAuditor with_parent = auditor;
    with_parent.add_table(parent);
    const AuditReport report = with_parent.run(ProcessTable{});
    EXPECT_TRUE(report.clean()) << report.to_string();
  }
  EXPECT_TRUE(auditor.run(ProcessTable{}).clean());
}

TEST(CowStats, MergeCoversEveryFieldIncludingPoolCounters) {
  // Regression: merge() must absorb every counter — pool_hits/pool_misses
  // were added after the original field set, and under per-shard
  // merge-on-read accounting a field merge() misses silently vanishes from
  // every adopted child's totals.
  CowStats a;
  a.pages_allocated = 1;
  a.pages_copied = 2;
  a.bytes_copied = 3;
  a.page_writes = 4;
  a.page_reads = 5;
  a.pool_hits = 6;
  a.pool_misses = 7;
  CowStats b;
  b.pages_allocated = 10;
  b.pages_copied = 20;
  b.bytes_copied = 30;
  b.page_writes = 40;
  b.page_reads = 50;
  b.pool_hits = 60;
  b.pool_misses = 70;

  a.merge(b);
  EXPECT_EQ(a.pages_allocated, 11u);
  EXPECT_EQ(a.pages_copied, 22u);
  EXPECT_EQ(a.bytes_copied, 33u);
  EXPECT_EQ(a.page_writes, 44u);
  EXPECT_EQ(a.page_reads, 55u);
  EXPECT_EQ(a.pool_hits, 66u);
  EXPECT_EQ(a.pool_misses, 77u);

  // Merging a default (all-zero) CowStats is the identity.
  a.merge(CowStats{});
  EXPECT_EQ(a.pages_allocated, 11u);
  EXPECT_EQ(a.pool_hits, 66u);
  EXPECT_EQ(a.pool_misses, 77u);
}

TEST(CowStats, PoolCountersFlowThroughAdopt) {
  PageTable parent(64, 8);
  PageTable child = parent.fork();
  child.write_page(0);
  child.write_page(1);
  const std::uint64_t child_pool_ops =
      child.stats().pool_hits + child.stats().pool_misses;
  EXPECT_EQ(child_pool_ops, 2u);

  parent.adopt(std::move(child));
  EXPECT_EQ(parent.stats().pool_hits + parent.stats().pool_misses,
            child_pool_ops);
}

TEST(PageTableDeath, OutOfRangeReadAborts) {
  PageTable t(64, 2);
  std::vector<std::uint8_t> buf(1);
  EXPECT_DEATH(t.read(128, buf), "MW_CHECK");
}

TEST(PageTableDeath, OutOfRangeWriteAborts) {
  PageTable t(64, 2);
  EXPECT_DEATH(t.write(127, bytes({1, 2})), "MW_CHECK");
}

}  // namespace
}  // namespace mw
