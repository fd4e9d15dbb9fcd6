// Page live-instance ledger audit: every way a page can come to life or
// die must keep the global count exact — the runtime auditor's leak
// arithmetic depends on it. A page is one allocation reached only through
// PageRef, so the ways are: make_page, a pool hit, a pool miss, the last
// drop (into a pool, or freed when the pool's class is full), and a pool
// freeing the blocks it holds (clear, destruction). A block sitting in a
// pool is not a page.
#include <gtest/gtest.h>

#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "pagestore/page.hpp"
#include "pagestore/page_pool.hpp"

namespace mw {
namespace {

// A page is not a value: it can be neither copied, moved nor assigned, so
// no special member can create or destroy one behind the ledger's back.
static_assert(!std::is_copy_constructible_v<Page>);
static_assert(!std::is_move_constructible_v<Page>);
static_assert(!std::is_copy_assignable_v<Page>);
static_assert(!std::is_move_assignable_v<Page>);

class PageLedgerTest : public ::testing::Test {
 protected:
  std::int64_t baseline_ = Page::live_instances();
  std::int64_t delta() const { return Page::live_instances() - baseline_; }
};

// A size class no other test allocates, so local pool counts are exact.
constexpr std::size_t kSize = 112;

TEST_F(PageLedgerTest, ConstructAndDestroy) {
  {
    PageRef p = make_page(16);
    EXPECT_EQ(delta(), 1);
    EXPECT_EQ(p->size(), 16u);
    EXPECT_EQ(p->data()[15], 0u);  // make_page zero-fills
  }
  EXPECT_EQ(delta(), 0);
}

// Copying a page's bytes makes a second page; copying a reference does not.
TEST_F(PageLedgerTest, CopyConstructCounts) {
  PagePool pool;
  bool hit = false;
  {
    PageRef a = make_page(kSize);
    a->mutable_data()[0] = 7;
    PageRef b = a;  // a second reference to the same page
    EXPECT_EQ(delta(), 1);
    EXPECT_EQ(a.use_count(), 2);
    PageRef c = pool.acquire_copy(*a, &hit);  // a second page
    EXPECT_EQ(delta(), 2);
    EXPECT_EQ(c->data()[0], 7u);
    EXPECT_EQ(a.use_count(), 2);
  }
  EXPECT_EQ(delta(), 0);
}

// Moving a reference neither makes nor kills a page: a page and its copy
// both stay counted until each one's last reference is destroyed.
TEST_F(PageLedgerTest, MoveConstructCountsBothUntilDestroyed) {
  PagePool pool;
  bool hit = false;
  {
    PageRef a = make_page(kSize);
    PageRef b = pool.acquire_copy(*a, &hit);
    PageRef c = std::move(a);
    PageRef d = std::move(b);
    EXPECT_EQ(a, nullptr);
    EXPECT_EQ(b, nullptr);
    EXPECT_EQ(c.use_count(), 1);
    EXPECT_EQ(delta(), 2);
    c.reset();
    EXPECT_EQ(delta(), 1);  // d still holds the copy
  }
  EXPECT_EQ(delta(), 0);
}

TEST_F(PageLedgerTest, AssignFromTemporaryBalances) {
  {
    PageRef a = make_page(16);
    a = make_page(32);  // the first page dies as the second replaces it
    EXPECT_EQ(delta(), 1);
    EXPECT_EQ(a->size(), 32u);
  }
  EXPECT_EQ(delta(), 0);
}

TEST_F(PageLedgerTest, VectorChurnBalances) {
  {
    std::vector<PageRef> pages;
    for (int i = 0; i < 50; ++i)
      pages.push_back(make_page(32));  // reallocations move references
    EXPECT_EQ(delta(), 50);
    pages.erase(pages.begin(), pages.begin() + 25);
    EXPECT_EQ(delta(), 25);
  }
  EXPECT_EQ(delta(), 0);
}

TEST_F(PageLedgerTest, PoolMissAndHitEachMakeOnePage) {
  PagePool pool;
  bool hit = true;
  {
    PageRef p = pool.acquire_zeroed(kSize, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(delta(), 1);
    std::memset(p->mutable_data(), 0xAB, kSize);
  }
  // The last drop left the ledger before the block reached the free list.
  EXPECT_EQ(delta(), 0);
  EXPECT_EQ(pool.frames_held(), 1u);
  {
    PageRef p = pool.acquire_zeroed(kSize, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(delta(), 1);
    EXPECT_EQ(pool.frames_held(), 0u);
    EXPECT_EQ(p->data()[kSize - 1], 0u);  // a recycled frame is re-zeroed
  }
  EXPECT_EQ(delta(), 0);
}

TEST_F(PageLedgerTest, DropIntoFullClassFreesTheBlock) {
  PagePool pool;
  pool.set_capacity_per_class(1);
  bool hit = false;
  {
    std::vector<PageRef> live;
    for (int i = 0; i < 3; ++i) live.push_back(pool.acquire_uninit(kSize, &hit));
    EXPECT_EQ(delta(), 3);
  }
  // No worker holds a slot, so every drop goes to the shared heap: one
  // block fits, the other two are freed.
  EXPECT_EQ(delta(), 0);
  EXPECT_EQ(pool.frames_held(), 1u);
  EXPECT_EQ(pool.stats().recycled, 1u);
  EXPECT_EQ(pool.stats().dropped, 2u);
}

TEST_F(PageLedgerTest, ClearFreesHeldBlocksWithoutTouchingTheLedger) {
  PagePool pool;
  bool hit = false;
  PageRef kept = pool.acquire_zeroed(kSize, &hit);
  { PageRef dropped = pool.acquire_copy(*kept, &hit); }
  EXPECT_EQ(delta(), 1);
  EXPECT_EQ(pool.clear(), 1u);
  EXPECT_EQ(pool.frames_held(), 0u);
  EXPECT_EQ(delta(), 1);  // the live page is untouched
  kept.reset();
  EXPECT_EQ(delta(), 0);
  EXPECT_EQ(pool.frames_held(), 1u);  // its block came back
}

TEST_F(PageLedgerTest, LocalPoolDestructionFreesItsBlocks) {
  {
    PagePool pool;
    bool hit = false;
    std::vector<PageRef> live;
    for (int i = 0; i < 8; ++i) live.push_back(pool.acquire_zeroed(kSize, &hit));
    EXPECT_EQ(delta(), 8);
    live.clear();
    EXPECT_EQ(pool.frames_held(), 8u);
    EXPECT_EQ(delta(), 0);
  }
  // The pool freed its eight blocks; a leak checker would report them
  // otherwise. The ledger never counted them.
  EXPECT_EQ(delta(), 0);
}

TEST_F(PageLedgerTest, PooledPagesLeaveLedgerWhenDropped) {
  {
    bool hit = false;
    PageRef p = PagePool::global().acquire_zeroed(kSize, &hit);
    EXPECT_EQ(delta(), 1);
    PageRef q = PagePool::global().acquire_copy(*p, &hit);
    EXPECT_EQ(delta(), 2);
  }
  // Both pages died: their frames may sit in the pool, but the *ledger*
  // counts pages, and those are gone — the auditor never sees pooled
  // frames as leaks.
  EXPECT_EQ(delta(), 0);
}

}  // namespace
}  // namespace mw
