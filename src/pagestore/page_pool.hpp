// PagePool: a sharded page-frame recycling allocator.
//
// Worlds churn pages at a ferocious rate: every COW break allocates a frame
// and every eliminated world drops its private frames. Without recycling,
// each break pays the system allocator (plus a zero-fill for demand pages),
// and each elimination gives the frames straight back — a malloc/free storm
// proportional to speculation activity. The pool intercepts the free side:
// when the last reference to a pooled Page dies, its block (header and
// bytes, one allocation: the *frame*) goes onto a per-size free list
// instead of back to the allocator, and the next allocation of that size
// reuses the warm frame.
//
// At one worker the free lists are cheap; at 16–64 scheduler workers a
// single pool mutex is exactly the shared-heap contention the or-parallel
// literature warns about, so the lists are *sharded*. Scheduler workers
// bind a thread-local shard id (PageShard), and each shard has its own
// mutex, free lists and counters; unbound threads use shard 0, the locked
// *global* shard, which behaves like the pre-shard pool. Shards cooperate
// rather than fragment the cache:
//
//   * steal refill — a shard whose free list misses pulls a small batch of
//     frames from the first sibling that has them before falling through
//     to the system allocator (work-stealing, allocation side);
//   * overflow    — a recycle that finds its home shard's class full parks
//     the frame in a sibling with room before dropping it (work-stealing,
//     free side).
//
// Per-shard stats merge on read: stats() sums the shards, shard_stats(s)
// exposes one shard for balance diagnostics.
//
// The Page live-instance ledger stays exact: a page leaves the ledger when
// its last reference drops, before its block reaches a free list, and a
// block re-enters it only when an acquire hands it out again — so the
// runtime auditor's leak arithmetic needs no pool-awareness to stay
// correct. frames_held() is exposed purely as a diagnostic. A pool frees
// the blocks it still holds when it is destroyed.
//
// Thread safety: each shard takes its own internal mutex and at most one
// shard lock is ever held at a time; a page's last drop may run on
// whatever thread lets go, and recycles into the pool instance that
// allocated the block (recorded in the page header, never blindly the
// global pool).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "pagestore/page.hpp"

namespace mw::trace {
struct SpecProfile;
}  // namespace mw::trace

namespace mw {

class PagePool {
 public:
  /// A pool with `worker_shards` per-worker shards plus the locked global
  /// shard that unbound threads use. 0 = one worker shard per hardware
  /// thread (minimum 2 when the hardware count is unknown).
  explicit PagePool(std::size_t worker_shards = 0);
  ~PagePool();
  PagePool(const PagePool&) = delete;
  PagePool& operator=(const PagePool&) = delete;

  /// The process-wide pool used by every PageTable.
  static PagePool& global();

  /// A page of `size` bytes with unspecified contents: a recycled frame
  /// keeps its old bytes (the blind-write path overwrites every byte).
  /// `*was_hit` reports whether a recycled frame was reused (true) or the
  /// system allocator was hit.
  PageRef acquire_uninit(std::size_t size, bool* was_hit);

  /// A zero-filled page of `size` bytes. `*was_hit` reports whether a
  /// recycled frame was reused (true) or the system allocator was hit.
  PageRef acquire_zeroed(std::size_t size, bool* was_hit);

  /// A page holding a copy of `src`'s bytes (the COW-break path).
  PageRef acquire_copy(const Page& src, bool* was_hit);

  /// Shards in this pool, including the global fallback shard (index 0).
  std::size_t shard_count() const { return shards_.size(); }

  /// Frames currently cached, and their total size in bytes (all shards).
  std::size_t frames_held() const;
  std::size_t bytes_held() const;

  /// Frames cached in one shard — the shard-balance diagnostic.
  std::size_t shard_frames_held(std::size_t shard) const;

  /// Max frames retained per size class *per shard*; extra frames overflow
  /// to a sibling shard and are released to the system allocator only when
  /// every shard's class is full.
  void set_capacity_per_class(std::size_t n);
  std::size_t capacity_per_class() const;

  /// Drops every cached frame in every shard; returns how many.
  std::size_t clear();

  struct PoolStats {
    std::uint64_t hits = 0;      // allocations served from the free lists
    std::uint64_t misses = 0;    // allocations that hit the system allocator
    std::uint64_t recycled = 0;  // frames taken back from dying pages
    std::uint64_t dropped = 0;   // frames released: every shard's class full
    std::uint64_t steal_refills = 0;  // frames imported from a sibling shard
                                      // when the home free list missed
    std::uint64_t overflows = 0;      // frames parked in a sibling shard
                                      // because the home class was full

    /// Folds another shard's counters into this one (merge-on-read).
    void merge(const PoolStats& o) {
      hits += o.hits;
      misses += o.misses;
      recycled += o.recycled;
      dropped += o.dropped;
      steal_refills += o.steal_refills;
      overflows += o.overflows;
    }
  };

  /// Counters merged across every shard.
  PoolStats stats() const;
  /// One shard's counters. Attribution: hits/misses/steal_refills belong
  /// to the shard the requesting thread was homed to; recycled/overflows
  /// to the shard the frame landed in; dropped to the recycler's home.
  PoolStats shard_stats(std::size_t shard) const;
  void reset_stats();

  /// Appends one PoolShardCounters entry per shard to `profile.pool_shards`
  /// so bench/CLI SpecProfile summaries show the shard balance.
  void fold_into(trace::SpecProfile& profile) const;

 private:
  friend class Page;  // Page::die() recycles into the owning pool

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::size_t, std::vector<Page*>> free;  // dead blocks
    std::size_t frames = 0;  // cached frame count (all classes)
    std::size_t bytes = 0;   // cached byte count
    PoolStats stats;
  };

  /// The calling thread's shard: its PageShard binding folded into this
  /// pool's shard range, or the locked global shard 0 when unbound.
  std::size_t home_shard() const;

  /// Takes back the block of a page whose last reference dropped.
  void recycle(Page* block);

  /// A live page of `size` bytes from a free list, or from the allocator
  /// (zero-filled when `zeroed`) on a miss.
  PageRef take(std::size_t size, bool zeroed, bool* was_hit);

  std::vector<std::unique_ptr<Shard>> shards_;  // [0] = global fallback
  std::atomic<std::size_t> cap_per_class_{1024};
};

}  // namespace mw
