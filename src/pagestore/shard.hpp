// PageShard: thread-local shard binding for the pagestore hot paths.
//
// The PagePool's free lists and the Page live-instance ledger are sharded
// so that scheduler workers allocating, COW-breaking and recycling frames
// in parallel do not serialize on one process-wide mutex / cacheline.
// Which shard a thread uses is decided here: long-lived worker threads
// (SpecScheduler workers, bench drivers) bind themselves to a small
// integer id at startup, and every pagestore consumer folds that id into
// its own shard range. Threads that never bind — tests, main threads,
// short-lived helpers — fall back to the locked *global* shard, which
// behaves exactly like the pre-shard single-mutex pool.
//
// The binding is advisory: any id is valid, correctness never depends on
// it, and two threads bound to the same id merely share a shard (and its
// lock). Unbinding restores the global-shard fallback.
#pragma once

#include <cstddef>

namespace mw {

class PageShard {
 public:
  static constexpr std::size_t kUnbound = static_cast<std::size_t>(-1);

  /// Binds the calling thread to shard `id`. Rebinding is allowed; the
  /// SpecScheduler binds each worker to its worker index.
  static void bind(std::size_t id) { bound_ = id; }

  /// Restores the global-shard fallback for the calling thread.
  static void unbind() { bound_ = kUnbound; }

  /// The calling thread's bound shard id, or kUnbound.
  static std::size_t current() { return bound_; }

 private:
  // Defined here, not in a .cpp: see DESIGN.md "Sharded pagestore" on
  // why the binding has no out-of-line definition.
  static inline thread_local std::size_t bound_ = kUnbound;
};

}  // namespace mw
