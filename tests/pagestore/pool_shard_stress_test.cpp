// Pagestore allocator stress: threads hammer the pool's acquire/recycle
// paths with frames and radix nodes deliberately dropped on threads other
// than the ones that allocated them, two schedulers claim slots side by
// side, and sibling forks COW-write and drop while a parent adopts. Built
// as its own target so the TSan CI job can run it — the assertions here
// (exact ledger, auditor-clean, coherent merged stats, exclusive slots)
// are meaningful exactly when the sanitizer is watching the owner lists,
// the atomic stacks and the ledger's relaxed atomics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/runtime_auditor.hpp"
#include "core/spec_scheduler.hpp"
#include "pagestore/page.hpp"
#include "pagestore/page_pool.hpp"
#include "pagestore/page_table.hpp"
#include "pagestore/shard.hpp"
#include "proc/process_table.hpp"

namespace mw {
namespace {

constexpr std::size_t kThreads = 4;
constexpr std::size_t kIters = 300;
constexpr std::size_t kPageSize = 96;

TEST(PoolShardStress, CrossThreadAcquireRecycleKeepsLedgerExact) {
  const std::int64_t baseline = Page::live_instances();
  PagePool pool;
  pool.set_capacity_per_class(8);  // force spill/drop traffic too

  // Pages parked here by one thread are dropped by another, so destruction
  // (ledger -1, frame recycle) constantly lands on a different slot than
  // construction (+1) did, and frames travel through the atomic stacks.
  std::mutex exchange_mu;
  std::vector<PageRef> exchange;

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      PageShard::bind();
      std::uint64_t rng = 0x9e3779b9u * (t + 1);
      auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
      };
      PageRef held;
      for (std::size_t i = 0; i < kIters; ++i) {
        bool hit = false;
        PageRef p = (next() % 4 == 0 && held)
                        ? pool.acquire_copy(*held, &hit)
                        : pool.acquire_zeroed(kPageSize, &hit);
        switch (next() % 3) {
          case 0:
            held = std::move(p);  // drop the old held page on this thread
            break;
          case 1: {
            std::lock_guard<std::mutex> lock(exchange_mu);
            exchange.push_back(std::move(p));
            break;
          }
          default: {
            // Drop a page somebody else may have created.
            std::lock_guard<std::mutex> lock(exchange_mu);
            if (!exchange.empty()) {
              exchange.pop_back();
            }
            break;  // p dies here as well
          }
        }
      }
      PageShard::unbind();
    });
  }
  for (auto& th : threads) th.join();
  exchange.clear();

  // Every page is dead: the sharded ledger must sum back to the baseline
  // even though individual shard counters went negative from cross-thread
  // destruction.
  EXPECT_EQ(Page::live_instances(), baseline);

  // Merged stats stay coherent: every acquire was a hit or a miss, and
  // every hit took exactly one kept frame (moving frames between lists and
  // stacks, or to the shared heap on unbind, re-counts none), so the
  // cached population is exactly recycled minus hits.
  const PagePool::PoolStats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, kThreads * kIters);
  EXPECT_EQ(pool.frames_held(), s.recycled - s.hits);
}

TEST(PoolShardStress, TwoSchedulersNeverShareAnOwnerList) {
  // Two runtimes' worth of workers in one process: each worker claims its
  // own slot, so no owner list has two owners. Every task churns pages and
  // radix nodes on the global pool from whichever worker runs it.
  const std::int64_t baseline = Page::live_instances();
  constexpr std::size_t kWorkers = 3;
  constexpr std::size_t kTasks = 48;
  std::mutex mu;
  std::unordered_set<std::size_t> slots[2];
  std::atomic<std::size_t> done{0};
  {
    SchedConfig cfg;
    cfg.workers = kWorkers;
    SpecScheduler a(cfg), b(cfg);
    SpecScheduler* scheds[2] = {&a, &b};
    for (std::size_t t = 0; t < kTasks; ++t) {
      const std::size_t which = t % 2;
      scheds[which]->submit(
          [&, which, t] {
            const std::size_t slot = PageShard::current();
            PageTable table(kPageSize, 3 * 64);
            for (std::size_t p = t % 7; p < 3 * 64; p += 5) {
              PageTable child = table.fork();
              child.write_page(p)[0] = static_cast<std::uint8_t>(t);
              table.adopt(std::move(child));
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            {
              std::lock_guard<std::mutex> lock(mu);
              slots[which].insert(slot);
            }
            done.fetch_add(1);
          },
          1.0, t + 1, kNoPid);
    }
    while (done.load() < kTasks) std::this_thread::yield();
  }
  for (const auto& set : slots) {
    EXPECT_FALSE(set.contains(PageShard::kUnbound));
    EXPECT_LE(set.size(), kWorkers);
  }
  for (std::size_t s : slots[0])
    EXPECT_FALSE(slots[1].contains(s)) << "slot " << s << " in both";
  EXPECT_EQ(Page::live_instances(), baseline);
}

TEST(PoolShardStress, FrameAndNodeFreedOnAnUnboundThreadAreReusedByTheirOwner) {
  // A worker writes a page (a leaf node and a frame from its own lists),
  // an unbound thread drops the table, and the worker's next write reuses
  // both from its stack: the frame by address, the node as a pool hit.
  constexpr std::size_t kSize = 200;  // a class of this test's own
  const std::int64_t baseline = Page::live_instances();
  RuntimeAuditor auditor;
  ProcessTable procs;
  std::optional<PageTable> table;
  const Page* first = nullptr;
  std::atomic<int> step{0};
  PagePool::PoolStats nodes_before, nodes_after, frames_after;
  std::thread worker([&] {
    PageShard::bind();
    table.emplace(kSize, 8);
    table->write_page(3)[0] = 1;
    first = table->peek(3);
    step = 1;
    while (step.load() != 2) std::this_thread::yield();
    nodes_before = PagePool::global().node_stats();
    const PagePool::PoolStats frames_before = PagePool::global().stats();
    PageTable again(kSize, 8);
    again.write_page(5)[0] = 2;
    nodes_after = PagePool::global().node_stats();
    frames_after = PagePool::global().stats();
    EXPECT_EQ(again.peek(5), first);  // the same frame, by way of the stack
    EXPECT_EQ(frames_after.hits, frames_before.hits + 1);
    EXPECT_EQ(frames_after.misses, frames_before.misses);
    PageShard::unbind();
  });
  while (step.load() != 1) std::this_thread::yield();
  std::thread([&] { table.reset(); }).join();  // unbound: frees both blocks
  step = 2;
  worker.join();
  EXPECT_EQ(nodes_after.misses, nodes_before.misses);
  EXPECT_EQ(nodes_after.hits, nodes_before.hits + 1);
  EXPECT_EQ(Page::live_instances(), baseline);
  EXPECT_TRUE(auditor.run(procs).clean()) << auditor.run(procs).to_string();
}

TEST(PoolShardStress, SiblingsBlindWriteAndDropWhileAParentAdopts) {
  // One round is one race: every sibling fork overwrites whole shared
  // pages (blind COW breaks), the losers drop their tables on their own
  // threads, and the parent adopts the winner while the losers are still
  // writing or dropping — so refcounts of nodes and pages shared three
  // ways fall on four threads at once. The map the siblings forked from
  // stays alive until every sibling has ended: an in-place write of a
  // radix node trusts a relaxed use_count() of 1, which orders nothing
  // after a sibling's drop, so no sibling may be the last holder of what
  // another still reads.
  constexpr std::size_t kPages = 4 * 64 + 3;  // a depth-2 tree
  constexpr std::size_t kRounds = 12;
  const std::int64_t baseline = Page::live_instances();
  RuntimeAuditor auditor;
  ProcessTable procs;
  {
    PageTable parent(kPageSize, kPages);
    parent.write(0, std::vector<std::uint8_t>(kPages * kPageSize, 0x5A));

    for (std::size_t round = 0; round < kRounds; ++round) {
      const std::size_t winner = round % kThreads;
      const PageTable forked_from = parent.fork();
      std::vector<std::optional<PageTable>> kids;
      for (std::size_t k = 0; k < kThreads; ++k)
        kids.emplace_back(parent.fork());

      std::atomic<bool> winner_done{false};
      std::vector<std::thread> siblings;
      for (std::size_t k = 0; k < kThreads; ++k) {
        siblings.emplace_back([&, k] {
          PageShard::bind();
          const auto tag = static_cast<std::uint8_t>(round * kThreads + k);
          const std::vector<std::uint8_t> page(kPageSize, tag);
          // Strided so siblings break overlapping pages of shared leaves.
          for (std::size_t p = k; p < kPages; p += 2)
            kids[k]->write(p * kPageSize, page);
          EXPECT_EQ(kids[k]->stats().bytes_copied, 0u);
          if (k == winner) {
            winner_done = true;
          } else {
            kids[k].reset();  // the loser's pages die on this thread
          }
          PageShard::unbind();
        });
      }
      while (!winner_done) std::this_thread::yield();
      parent.adopt(std::move(*kids[winner]));
      for (auto& th : siblings) th.join();
      kids.clear();

      const auto tag = static_cast<std::uint8_t>(round * kThreads + winner);
      for (std::size_t p = winner; p < kPages; p += 2) {
        ASSERT_EQ(parent.peek(p)->data()[0], tag) << "round " << round;
        ASSERT_EQ(parent.peek(p)->data()[kPageSize - 1], tag);
      }
    }
    std::unordered_set<const Page*> reachable;
    parent.collect_pages(reachable);
    EXPECT_EQ(Page::live_instances(),
              baseline + static_cast<std::int64_t>(reachable.size()));
    auditor.add_table(parent);
    EXPECT_TRUE(auditor.run(procs).clean())
        << auditor.run(procs).to_string();
  }
  EXPECT_EQ(Page::live_instances(), baseline);
}

TEST(PoolShardStress, ScopedSiblingsWriteAndDropThenOneIsAdopted) {
  // A kPool block at the pagestore level: the siblings are scoped forks,
  // so their leaf path copies borrow the parent's pages. Each writes on
  // its own worker thread (partial writes: real copies out of borrowed
  // slots), the losers drop their tables there, and the parent adopts the
  // winner only after every sibling has ended — the parent's map holds
  // everything they borrowed until then. The adopt then settles the
  // winner's borrowed slots.
  constexpr std::size_t kPages = 4 * 64 + 3;  // a depth-2 tree
  constexpr std::size_t kRounds = 12;
  const std::int64_t baseline = Page::live_instances();
  RuntimeAuditor auditor;
  ProcessTable procs;
  {
    PageTable parent(kPageSize, kPages);
    parent.write(0, std::vector<std::uint8_t>(kPages * kPageSize, 0x5A));

    for (std::size_t round = 0; round < kRounds; ++round) {
      const std::size_t winner = round % kThreads;
      std::vector<std::optional<PageTable>> kids;
      for (std::size_t k = 0; k < kThreads; ++k)
        kids.emplace_back(parent.fork_scoped());

      std::vector<std::thread> siblings;
      for (std::size_t k = 0; k < kThreads; ++k) {
        siblings.emplace_back([&, k] {
          PageShard::bind();
          const auto tag = static_cast<std::uint8_t>(round * kThreads + k);
          const std::vector<std::uint8_t> two{tag, tag};
          // Strided so siblings copy overlapping pages of shared leaves.
          for (std::size_t p = k; p < kPages; p += 3)
            kids[k]->write(p * kPageSize + 1, two);
          if (k != winner) kids[k].reset();  // dies on this thread
          PageShard::unbind();
        });
      }
      for (auto& th : siblings) th.join();
      parent.adopt(std::move(*kids[winner]));
      kids.clear();

      const auto tag = static_cast<std::uint8_t>(round * kThreads + winner);
      for (std::size_t p = winner; p < kPages; p += 3) {
        ASSERT_EQ(parent.peek(p)->data()[1], tag) << "round " << round;
        ASSERT_EQ(parent.peek(p)->data()[2], tag);
      }
      std::unordered_set<const Page*> reachable;
      parent.collect_pages(reachable);
      ASSERT_EQ(Page::live_instances(),
                baseline + static_cast<std::int64_t>(reachable.size()))
          << "round " << round;
    }
    auditor.add_table(parent);
    EXPECT_TRUE(auditor.run(procs).clean())
        << auditor.run(procs).to_string();
  }
  EXPECT_EQ(Page::live_instances(), baseline);
}

}  // namespace
}  // namespace mw
