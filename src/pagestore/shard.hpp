// PageShard: which per-worker heap a thread owns in the pagestore.
//
// The PagePool keeps one owner-only heap per slot (page_pool.hpp), and the
// Page live-instance ledger one counter per slot, so that scheduler
// workers allocating, COW-breaking and recycling blocks in parallel touch
// no shared lock or cacheline. A long-lived worker thread (a SpecScheduler
// worker, a bench or test thread) claims a free slot at startup with
// bind(), and from then on it alone pops from that slot's free lists.
// Threads that never bind — main threads, drivers, short-lived helpers —
// allocate through the pool's shared, locked heap and free onto the
// workers' stacks.
//
// The claim is exclusive: a slot is held by at most one thread at a time,
// because its free lists are unsynchronised. Two runtimes in one process
// (ClusterSim nodes, service tests) therefore never share an owner list;
// a thread that finds every slot taken stays unbound and takes the shared
// path, which is slower but equally correct. unbind() hands the slot's
// lists to each pool's shared heap and frees the slot; the claim's
// acquire/release pair orders the previous owner's list operations before
// the next owner's.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace mw {

class PageShard {
 public:
  static constexpr std::size_t kUnbound = static_cast<std::size_t>(-1);
  /// Slots, so at most this many threads own a heap at once.
  static constexpr std::size_t kSlots = 32;

  /// Claims a free slot for the calling thread and returns it, or kUnbound
  /// when every slot is held. A thread that is already bound keeps its
  /// slot.
  static std::size_t bind() {
    if (bound_ != kUnbound) return bound_;
    std::uint32_t held = claimed_.load(std::memory_order_relaxed);
    while (held != ~std::uint32_t{0}) {
      const auto s = static_cast<std::size_t>(std::countr_one(held));
      if (claimed_.compare_exchange_weak(held, held | (std::uint32_t{1} << s),
                                         std::memory_order_acquire)) {
        bound_ = s;
        return s;
      }
    }
    return kUnbound;
  }

  /// Hands the calling thread's lists back to every pool's shared heap and
  /// frees its slot (page_pool.cpp). A no-op on an unbound thread. A bound
  /// thread must call it before it exits, or its slot stays held.
  static void unbind();

  /// The calling thread's slot, or kUnbound.
  static std::size_t current() { return bound_; }

  /// The held slots, one bit each.
  static std::uint32_t claimed() {
    return claimed_.load(std::memory_order_relaxed);
  }

 private:
  // Defined here, not in a .cpp: see DESIGN.md "Sharded pagestore" on
  // why the binding has no out-of-line definition.
  static inline thread_local std::size_t bound_ = kUnbound;
  static inline std::atomic<std::uint32_t> claimed_{0};
};

}  // namespace mw
