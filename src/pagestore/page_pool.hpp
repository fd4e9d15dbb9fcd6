// PagePool: per-worker free lists for every pagestore block.
//
// Worlds churn blocks at a ferocious rate: every COW break takes a page
// frame, every path copy a radix-tree node, and every eliminated world or
// commit drops both. The pool keeps the block of each dying page or node
// and hands it to the next allocation of that size, turning the
// malloc/free storm into list push/pop. Nodes are pooled because they
// escape glibc's per-thread cache: a leaf or inner node is just over 1 KiB
// with its control block (1,080 and 1,056 bytes), above the 1,032-byte
// tcache limit, so each system allocation of one takes an arena lock, and
// one freed on another thread is a cross-arena free.
//
// The lists follow mimalloc's free-list sharding (Leijen, Zorn and de
// Moura, MSR-TR-2019-18). Each PageShard slot has a heap in every pool: a
// fixed array of size classes (the page sizes in use plus the two node
// sizes), each with an *owner list* that only the thread holding the
// slot pushes and pops — no lock, no atomic read-modify-write — and an
// *atomic stack* that other threads push onto. A worker whose list misses
// takes its whole stack with one exchange. A thread that holds no slot
// (the parent of a race, whose commit drops the old pages and leaves)
// pushes each block it frees onto a worker's stack, round robin over the
// held slots, so every worker gets its share; a worker whose own list is
// full does the same with what does not fit.
//
// Heap 0 is the shared heap, for threads that hold no slot: its list is
// guarded by the shared mutex, and its stack takes what no worker has
// room for. A worker whose list and stack are both empty takes the shared
// list before it mallocs. A worker that unbinds moves its lists there.
//
// Balance: a worker keeps at most a quarter of capacity_per_class()
// blocks on its list and as many on its stack, the shared heap's stack
// at most capacity_per_class(); a block that fits nowhere is freed to the
// system allocator (`dropped`). DESIGN.md "Sharded pagestore" records why
// blocks are not returned to the worker that allocated them.
//
// The Page live-instance ledger stays exact: a page leaves the ledger when
// its last reference drops, before its block reaches a list, and a block
// re-enters it only when an acquire hands it out again — so the runtime
// auditor's leak arithmetic needs no pool-awareness. Node blocks are not
// Pages and never enter the ledger. Each frame's owning pool is in its
// header, so a frame returns to the pool that made it; nodes always come
// from the global pool. frames_held() is a diagnostic. A pool frees every
// block it still holds when it is destroyed.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

#include "pagestore/page.hpp"
#include "pagestore/shard.hpp"

namespace mw::trace {
struct SpecProfile;
}  // namespace mw::trace

namespace mw {

class PagePool {
 public:
  /// Size classes per heap. A block size that finds every class taken is
  /// not pooled: it is allocated and freed through the system allocator.
  static constexpr std::size_t kClasses = 16;

  PagePool();
  ~PagePool();
  PagePool(const PagePool&) = delete;
  PagePool& operator=(const PagePool&) = delete;

  /// The process-wide pool used by every PageTable and PageMap.
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

  /// A block of `bytes` for a radix-tree node, and its return (PageMap's
  /// allocator). free_node may run on any thread.
  void* allocate_node(std::size_t bytes);
  void free_node(void* p, std::size_t bytes);

  /// Heaps in this pool: the shared heap (index 0) and one per slot
  /// (index 1 + slot). The per-heap views below take this index.
  static constexpr std::size_t shard_count() { return PageShard::kSlots + 1; }

  /// Frames currently cached, and their total size in bytes (every heap's
  /// list and stack).
  std::size_t frames_held() const;
  std::size_t bytes_held() const;

  /// Frames cached by one heap, list and stack — the balance diagnostic.
  std::size_t shard_frames_held(std::size_t shard) const;

  /// Max blocks the shared heap's stack keeps per class; a worker's list
  /// and stack a quarter of it each (see Balance above). It bounds blocks
  /// freed from then on; a surplus already cached drains as it is used.
  void set_capacity_per_class(std::size_t n);
  std::size_t capacity_per_class() const;

  /// Frees every cached block no bound thread owns — the shared heap, and
  /// the stacks of slots nobody holds — and returns how many frames that
  /// was. A bound thread's list and stack stay; they move to the shared
  /// heap when it unbinds.
  std::size_t clear();

  struct PoolStats {
    std::uint64_t hits = 0;      // allocations served from a free list
    std::uint64_t misses = 0;    // allocations that hit the system allocator
    std::uint64_t recycled = 0;  // blocks kept from dying pages or nodes
    std::uint64_t dropped = 0;   // blocks released: every list was full
    std::uint64_t refills = 0;   // empty worker lists refilled from the
                                 // worker's stack or the shared heap
    std::uint64_t spills = 0;    // of `recycled`, blocks pushed onto
                                 // another heap's stack

    /// Folds another heap's counters into this one (merge-on-read).
    void merge(const PoolStats& o) {
      hits += o.hits;
      misses += o.misses;
      recycled += o.recycled;
      dropped += o.dropped;
      refills += o.refills;
      spills += o.spills;
    }
  };

  /// Page-frame counters merged across every heap.
  PoolStats stats() const;
  /// Radix-node counters merged across every heap.
  PoolStats node_stats() const;
  /// One heap's page-frame counters, attributed to the heap of the thread
  /// that allocated (hits, misses, refills) or freed (recycled, dropped,
  /// spills); shard 0 counts the threads that hold no slot.
  PoolStats shard_stats(std::size_t shard) const;

  /// Appends one PoolShardCounters entry per heap that saw frame traffic
  /// to `profile.pool_shards`, so bench/CLI SpecProfile summaries show
  /// the balance.
  void fold_into(trace::SpecProfile& profile) const;

 private:
  friend class Page;       // Page::die() recycles into the owning pool
  friend class PageShard;  // unbind() hands a slot's lists back

  struct Bin;
  struct Heap;

  /// The class of blocks with key `key` (their size, with a node flag);
  /// with `claim`, claims a free class on first use. kClasses when none.
  std::size_t class_of(std::uint32_t key, bool claim);
  /// A block of `bytes` from the calling thread's list, the stacks, or the
  /// system allocator (zeroed when `zeroed`; a recycled block is not).
  void* take(std::uint32_t key, std::size_t bytes, bool zeroed, bool* hit);
  PageRef take_page(std::size_t size, bool zeroed, bool* was_hit);
  /// Takes back a dead block. Any thread.
  void give_back(void* block, std::uint32_t key);
  /// Pushes a block of class `c` that the calling thread (slot `self`)
  /// does not keep onto another worker's stack, or the shared heap's.
  /// False when every one is full.
  bool give_away(std::size_t c, void* block, std::size_t self);
  /// Moves slot `slot`'s lists to the shared heap. Called by the slot's
  /// owner as it unbinds.
  void hand_back(std::size_t slot);
  PoolStats sum(std::size_t shard, bool nodes) const;
  /// Blocks a worker keeps per class on its list, and on its stack.
  std::int64_t owner_cap() const {
    return static_cast<std::int64_t>(
        std::max<std::size_t>(1, capacity_per_class() / 4));
  }

  std::atomic<std::uint32_t> class_key_[kClasses]{};
  std::unique_ptr<Heap[]> heaps_;  // [0] shared, [1 + s] slot s
  std::mutex shared_mu_;           // owns the shared heap's lists
  std::atomic<std::size_t> cap_per_class_{1024};
};

}  // namespace mw
