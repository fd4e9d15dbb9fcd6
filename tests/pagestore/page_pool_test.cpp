// Sharded PagePool unit tests: frame ownership (a frame recycles into the
// pool that allocated it, not the global pool), steal-refill and overflow
// traffic between shards, and merge-on-read stats arithmetic.
#include "pagestore/page_pool.hpp"

#include <gtest/gtest.h>

#include "pagestore/shard.hpp"

namespace mw {
namespace {

// Tests bind the *main* thread to exercise worker-shard homing; the guard
// restores the unbound state so later tests (and suites) see shard 0.
struct ShardBinding {
  explicit ShardBinding(std::size_t id) { PageShard::bind(id); }
  ~ShardBinding() { PageShard::unbind(); }
};

// A size class no other test allocates, so global-pool counts are stable.
constexpr std::size_t kOddSize = 3333;

TEST(PagePool, WrapRecyclesIntoOwningPoolNotGlobal) {
  PagePool local(2);
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
  PagePool pool(4);
  ASSERT_EQ(pool.shard_count(), 5u);
  bool hit = false;
  { PageRef p = pool.acquire_zeroed(kOddSize, &hit); }
  EXPECT_EQ(pool.shard_frames_held(0), 1u);
  for (std::size_t s = 1; s < pool.shard_count(); ++s)
    EXPECT_EQ(pool.shard_frames_held(s), 0u);
  EXPECT_EQ(pool.shard_stats(0).recycled, 1u);
}

TEST(PagePool, BoundThreadsHomeToDistinctShards) {
  PagePool pool(2);  // shards: 0 = global, 1..2 = workers
  bool hit = false;
  {
    ShardBinding bind(0);
    PageRef p = pool.acquire_zeroed(kOddSize, &hit);
  }
  {
    // A different size class: the same class would be steal-refilled from
    // shard 1 instead of allocating (and homing) fresh in shard 2.
    ShardBinding bind(1);
    PageRef p = pool.acquire_zeroed(kOddSize + 1, &hit);
  }
  EXPECT_EQ(pool.shard_frames_held(1), 1u);
  EXPECT_EQ(pool.shard_frames_held(2), 1u);
  EXPECT_EQ(pool.shard_frames_held(0), 0u);
}

TEST(PagePool, StealRefillPullsFromSiblingShard) {
  PagePool pool(2);
  bool hit = false;
  {
    // Worker 0 (shard 1) allocates and frees: the frame parks in shard 1.
    ShardBinding bind(0);
    PageRef p = pool.acquire_zeroed(kOddSize, &hit);
    EXPECT_FALSE(hit);
  }
  ASSERT_EQ(pool.shard_frames_held(1), 1u);
  {
    // Worker 1 (shard 2) misses locally and must steal from shard 1
    // instead of paying the system allocator.
    ShardBinding bind(1);
    PageRef p = pool.acquire_zeroed(kOddSize, &hit);
    EXPECT_TRUE(hit);
  }
  EXPECT_EQ(pool.shard_frames_held(1), 0u);
  EXPECT_GE(pool.stats().steal_refills, 1u);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST(PagePool, OverflowParksInSiblingBeforeDropping) {
  PagePool pool(2);  // 3 shards x cap 1 = 3 parkable frames per class
  pool.set_capacity_per_class(1);
  bool hit = false;
  {
    ShardBinding bind(0);
    PageRef a = pool.acquire_zeroed(kOddSize, &hit);
    PageRef b = pool.acquire_zeroed(kOddSize, &hit);
    PageRef c = pool.acquire_zeroed(kOddSize, &hit);
    PageRef d = pool.acquire_zeroed(kOddSize, &hit);
    // All four die here: one fills the home class, two overflow to the
    // siblings with room, and with every shard's class full the last one
    // is dropped to the system allocator.
  }
  EXPECT_EQ(pool.frames_held(), 3u);
  EXPECT_EQ(pool.stats().recycled, 3u);
  EXPECT_EQ(pool.stats().overflows, 2u);
  EXPECT_EQ(pool.stats().dropped, 1u);
}

TEST(PagePool, MergedStatsAreSumOfShardsAndStableAcrossReads) {
  PagePool pool(3);
  bool hit = false;
  for (int i = 0; i < 4; ++i) {
    ShardBinding bind(static_cast<std::size_t>(i));
    PageRef p = pool.acquire_zeroed(kOddSize + static_cast<std::size_t>(i),
                                    &hit);
  }
  PagePool::PoolStats summed;
  for (std::size_t s = 0; s < pool.shard_count(); ++s)
    summed.merge(pool.shard_stats(s));
  const PagePool::PoolStats merged = pool.stats();
  EXPECT_EQ(merged.hits, summed.hits);
  EXPECT_EQ(merged.misses, summed.misses);
  EXPECT_EQ(merged.recycled, summed.recycled);
  EXPECT_EQ(merged.dropped, summed.dropped);
  EXPECT_EQ(merged.steal_refills, summed.steal_refills);
  EXPECT_EQ(merged.overflows, summed.overflows);

  // Merge-on-read must not consume anything: reading twice is identical.
  const PagePool::PoolStats again = pool.stats();
  EXPECT_EQ(again.hits, merged.hits);
  EXPECT_EQ(again.misses, merged.misses);
  EXPECT_EQ(again.recycled, merged.recycled);
  EXPECT_EQ(again.dropped, merged.dropped);
  EXPECT_EQ(again.steal_refills, merged.steal_refills);
  EXPECT_EQ(again.overflows, merged.overflows);

  EXPECT_EQ(merged.misses, 4u);  // four distinct size classes: all misses
}

TEST(PagePool, ClearDropsEveryShard) {
  PagePool pool(2);
  bool hit = false;
  {
    // Hold all three pages at once so each acquire allocates a distinct
    // frame (dropping between acquires would let the next one steal it).
    std::vector<PageRef> live;
    for (int i = 0; i < 3; ++i) {
      ShardBinding bind(static_cast<std::size_t>(i));
      live.push_back(pool.acquire_zeroed(kOddSize, &hit));
    }
    ShardBinding bind(0);  // drops recycle into a worker shard's home
    live.clear();
  }
  EXPECT_EQ(pool.frames_held(), 3u);
  EXPECT_EQ(pool.clear(), 3u);
  EXPECT_EQ(pool.frames_held(), 0u);
  EXPECT_EQ(pool.bytes_held(), 0u);
}

}  // namespace
}  // namespace mw
