// PagePool unit tests: frame ownership (a frame recycles into the pool
// that allocated it, not the global pool), where frames freed by bound
// and unbound threads go, refills, spills and drops, and merge-on-read
// stats arithmetic.
#include "pagestore/page_pool.hpp"

#include <gtest/gtest.h>

#include <latch>
#include <set>
#include <thread>
#include <vector>

#include "pagestore/shard.hpp"

namespace mw {
namespace {

// Tests bind the *main* thread to exercise a worker's heap; the guard
// hands the slot back so later tests (and suites) see an unbound thread.
struct ShardBinding {
  ShardBinding() : slot(PageShard::bind()) {}
  ~ShardBinding() { PageShard::unbind(); }
  std::size_t slot;
};

// A size class no other test allocates, so global-pool counts are stable.
constexpr std::size_t kOddSize = 3333;

TEST(PagePool, WrapRecyclesIntoOwningPoolNotGlobal) {
  PagePool local;
  const std::size_t global_before = PagePool::global().frames_held();

  bool hit = false;
  {
    PageRef p = local.acquire_zeroed(kOddSize, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(p->size(), kOddSize);
  }
  // The dying page's frame must come back to `local` — the page header
  // records the owning pool, not PagePool::global().
  EXPECT_EQ(local.frames_held(), 1u);
  EXPECT_EQ(PagePool::global().frames_held(), global_before);

  PageRef again = local.acquire_zeroed(kOddSize, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(local.frames_held(), 0u);
  EXPECT_EQ(local.stats().hits, 1u);
}

TEST(PagePool, UnboundThreadHomesToGlobalShard) {
  PagePool pool;
  ASSERT_EQ(pool.shard_count(), PageShard::kSlots + 1);
  bool hit = false;
  { PageRef p = pool.acquire_zeroed(kOddSize, &hit); }
  // No thread holds a slot, so the frame goes to the shared heap.
  EXPECT_EQ(pool.shard_frames_held(0), 1u);
  for (std::size_t s = 1; s < pool.shard_count(); ++s)
    EXPECT_EQ(pool.shard_frames_held(s), 0u);
  EXPECT_EQ(pool.shard_stats(0).recycled, 1u);
  EXPECT_EQ(pool.shard_stats(0).spills, 1u);
}

TEST(PagePool, BoundThreadsHomeToDistinctShards) {
  PagePool pool;
  bool hit = false;
  ShardBinding main_binding;
  ASSERT_NE(main_binding.slot, PageShard::kUnbound);
  { PageRef p = pool.acquire_zeroed(kOddSize, &hit); }
  std::size_t other = PageShard::kUnbound;
  std::size_t other_held = 0;
  std::thread t([&] {
    ShardBinding binding;  // claimed while the main thread holds its slot
    other = binding.slot;
    { PageRef p = pool.acquire_zeroed(kOddSize + 1, &hit); }
    other_held = pool.shard_frames_held(1 + other);
  });
  t.join();
  ASSERT_NE(other, PageShard::kUnbound);
  EXPECT_NE(other, main_binding.slot);
  // Each thread kept its own frame on its own list; the other thread's
  // slot went back to the shared heap when it unbound.
  EXPECT_EQ(pool.shard_frames_held(1 + main_binding.slot), 1u);
  EXPECT_EQ(other_held, 1u);
  EXPECT_EQ(pool.shard_frames_held(1 + other), 0u);
  EXPECT_EQ(pool.shard_frames_held(0), 1u);
}

TEST(PagePool, RefillTakesTheFramesOtherThreadsFreed) {
  PagePool pool;
  ShardBinding binding;
  bool hit = false;
  std::vector<PageRef> pages;
  for (int i = 0; i < 3; ++i) pages.push_back(pool.acquire_zeroed(kOddSize, &hit));
  // An unbound thread drops them: they go onto this worker's stack, the
  // only slot held, not to the system allocator.
  std::thread([&] { pages.clear(); }).join();
  EXPECT_EQ(pool.shard_frames_held(1 + binding.slot), 3u);
  EXPECT_EQ(pool.shard_stats(0).spills, 3u);

  PageRef p = pool.acquire_zeroed(kOddSize, &hit);
  EXPECT_TRUE(hit);
  const PagePool::PoolStats own = pool.shard_stats(1 + binding.slot);
  EXPECT_EQ(own.refills, 1u);  // one exchange took all three
  EXPECT_EQ(own.hits, 1u);
  EXPECT_EQ(own.misses, 3u);
  EXPECT_EQ(pool.frames_held(), 2u);
}

TEST(PagePool, FullListSpillsToTheSharedHeapBeforeDropping) {
  PagePool pool;
  pool.set_capacity_per_class(4);  // a worker keeps 1; the shared heap 4
  ShardBinding binding;
  bool hit = false;
  {
    std::vector<PageRef> live;
    for (int i = 0; i < 6; ++i) live.push_back(pool.acquire_zeroed(kOddSize, &hit));
    // All six die here: one fills this worker's list, four spill to the
    // shared heap (no other worker holds a slot), and the last is dropped
    // to the system allocator.
  }
  EXPECT_EQ(pool.shard_frames_held(1 + binding.slot), 1u);
  EXPECT_EQ(pool.shard_frames_held(0), 4u);
  const PagePool::PoolStats s = pool.stats();
  EXPECT_EQ(s.recycled, 5u);
  EXPECT_EQ(s.spills, 4u);
  EXPECT_EQ(s.dropped, 1u);
}

TEST(PagePool, MergedStatsAreSumOfShardsAndStableAcrossReads) {
  PagePool pool;
  bool hit = false;
  for (int i = 0; i < 4; ++i) {
    ShardBinding bind;
    PageRef p = pool.acquire_zeroed(kOddSize + static_cast<std::size_t>(i),
                                    &hit);
  }
  { PageRef p = pool.acquire_zeroed(kOddSize, &hit); }  // unbound: a hit
  PagePool::PoolStats summed;
  for (std::size_t s = 0; s < pool.shard_count(); ++s)
    summed.merge(pool.shard_stats(s));
  const PagePool::PoolStats merged = pool.stats();
  EXPECT_EQ(merged.hits, summed.hits);
  EXPECT_EQ(merged.misses, summed.misses);
  EXPECT_EQ(merged.recycled, summed.recycled);
  EXPECT_EQ(merged.dropped, summed.dropped);
  EXPECT_EQ(merged.refills, summed.refills);
  EXPECT_EQ(merged.spills, summed.spills);

  // Merge-on-read must not consume anything: reading twice is identical.
  const PagePool::PoolStats again = pool.stats();
  EXPECT_EQ(again.hits, merged.hits);
  EXPECT_EQ(again.misses, merged.misses);
  EXPECT_EQ(again.recycled, merged.recycled);
  EXPECT_EQ(again.dropped, merged.dropped);
  EXPECT_EQ(again.refills, merged.refills);
  EXPECT_EQ(again.spills, merged.spills);

  EXPECT_EQ(merged.misses, 4u);  // four distinct size classes: all misses
  EXPECT_EQ(merged.hits, 1u);
  EXPECT_EQ(pool.frames_held(), merged.recycled - merged.hits);
}

TEST(PagePool, ClearDropsEveryShard) {
  PagePool pool;
  bool hit = false;
  {
    // Hold all three pages at once so each acquire allocates a distinct
    // frame; unbound, their drops land in the shared heap.
    std::vector<PageRef> live;
    for (int i = 0; i < 3; ++i) live.push_back(pool.acquire_zeroed(kOddSize, &hit));
  }
  {
    // A bound thread's own list is its owner's alone: clear() leaves it,
    // and the slot's lists reach the shared heap when it unbinds.
    ShardBinding bind;
    { PageRef p = pool.acquire_zeroed(kOddSize + 1, &hit); }
    EXPECT_EQ(pool.frames_held(), 4u);
    EXPECT_EQ(pool.clear(), 3u);
    EXPECT_EQ(pool.frames_held(), 1u);
  }
  EXPECT_EQ(pool.shard_frames_held(0), 1u);
  EXPECT_EQ(pool.clear(), 1u);
  EXPECT_EQ(pool.frames_held(), 0u);
  EXPECT_EQ(pool.bytes_held(), 0u);
}

TEST(PageShard, ClaimsAreExclusive) {
  ShardBinding main_binding;
  ASSERT_NE(main_binding.slot, PageShard::kUnbound);
  std::vector<std::size_t> got(4, PageShard::kUnbound);
  std::latch all_bound(static_cast<std::ptrdiff_t>(got.size()));
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < got.size(); ++i) {
    threads.emplace_back([&, i] {
      ShardBinding binding;
      got[i] = binding.slot;
      all_bound.arrive_and_wait();  // every slot held at once
    });
  }
  for (auto& t : threads) t.join();
  std::set<std::size_t> slots{main_binding.slot};
  for (std::size_t s : got) {
    ASSERT_NE(s, PageShard::kUnbound);
    slots.insert(s);
  }
  EXPECT_EQ(slots.size(), got.size() + 1);
  EXPECT_EQ(PageShard::bind(), main_binding.slot);  // already bound: kept
  EXPECT_EQ(PageShard::claimed(), std::uint32_t{1} << main_binding.slot);
}

}  // namespace
}  // namespace mw
