// Sharded-pagestore stress: N threads hammer the pool's acquire/recycle
// paths and the parallel segment-commit pipeline concurrently, with frames
// deliberately dropped on threads (and shards) other than the ones that
// allocated them. Built as its own target so the TSan CI job can run it —
// the assertions here (exact ledger, auditor-clean, coherent merged stats)
// are meaningful exactly when the sanitizer is watching the shard locks,
// the ledger's relaxed atomics, and the concurrent extraction walks.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/runtime_auditor.hpp"
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
  PagePool pool(kThreads);
  pool.set_capacity_per_class(8);  // force overflow/drop traffic too

  // Pages parked here by one thread are dropped by another, so destruction
  // (ledger -1, frame recycle) constantly lands on a different shard than
  // construction (+1) did.
  std::mutex exchange_mu;
  std::vector<PageRef> exchange;

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      PageShard::bind(t);
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
  // every hit removed exactly one parked frame net (a steal refill moves
  // the rest of its batch between shards without re-counting them), so
  // the cached population is exactly recycled minus hits.
  const PagePool::PoolStats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, kThreads * kIters);
  EXPECT_EQ(pool.frames_held(), s.recycled - s.hits);
}

TEST(PoolShardStress, ParallelSegmentCommitRoundsStayAuditorClean) {
  RuntimeAuditor auditor;
  ProcessTable procs;
  constexpr std::size_t kSegPages = 24;
  constexpr std::size_t kRounds = 12;
  {
    PageTable parent(kPageSize, kThreads * kSegPages);

    for (std::size_t round = 0; round < kRounds; ++round) {
      std::vector<PageTable> kids;
      kids.reserve(kThreads);
      for (std::size_t k = 0; k < kThreads; ++k) kids.push_back(parent.fork());

      // Each worker COW-writes its own segment of its own child; forks all
      // happened above, so the only shared state the writers touch is the
      // immutable parent tree and the sharded pool/ledger.
      std::vector<std::thread> writers;
      for (std::size_t k = 0; k < kThreads; ++k) {
        writers.emplace_back([&, k] {
          PageShard::bind(k);
          const std::size_t lo = k * kSegPages;
          for (std::size_t p = 0; p < kSegPages; ++p) {
            std::uint8_t* d = kids[k].write_page(lo + p);
            d[0] = static_cast<std::uint8_t>(round + 1);
            d[1] = static_cast<std::uint8_t>(k);
          }
          PageShard::unbind();
        });
      }
      for (auto& th : writers) th.join();

      std::vector<PageTable::SegmentAdoptOp> ops;
      for (std::size_t k = 0; k < kThreads; ++k)
        ops.push_back({&kids[k], k * kSegPages, (k + 1) * kSegPages});
      const PageTable::AdoptBatchStats batch =
          parent.adopt_segments(std::move(ops));
      ASSERT_FALSE(batch.fell_back);
      ASSERT_EQ(batch.pages_spliced, kThreads * kSegPages);

      for (std::size_t k = 0; k < kThreads; ++k) {
        const Page* p = parent.peek(k * kSegPages);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p->data()[0], static_cast<std::uint8_t>(round + 1));
        EXPECT_EQ(p->data()[1], static_cast<std::uint8_t>(k));
      }
    }
    // With every child dead and every round's splice complete, the only
    // pages beyond the baseline must be the ones the parent still reaches.
    auditor.add_table(parent);
    EXPECT_TRUE(auditor.run(procs).clean())
        << auditor.run(procs).to_string();
  }
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
          PageShard::bind(k);
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
          PageShard::bind(k);
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
