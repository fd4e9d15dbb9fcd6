// Fixed-size page: the unit of sink state (§2.1). "All sink state can be
// represented in this fashion" — the entire memory hierarchy is buried under
// the page abstraction, so worlds share, copy and commit state purely in
// terms of pages.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#include "pagestore/shard.hpp"

namespace mw {

/// The process-wide live-Page ledger, sharded to keep page churn from many
/// scheduler workers off a single contended cacheline. Each thread bumps
/// the counter of its bound shard (PageShard; unbound threads share slot
/// 0), and total() merges on read. A page destroyed on a different thread
/// than the one that created it leaves one shard counter positive and
/// another negative — individual shard counters are *deltas*, only the sum
/// is meaningful, and the sum stays exact: every construction adds +1 to
/// exactly one shard and every destruction -1 to exactly one shard.
class PageLedger {
 public:
  static constexpr std::size_t kShards = 16;

  static void add(std::int64_t d) {
    counter(PageShard::current()).fetch_add(d, std::memory_order_relaxed);
  }

  /// Live Page instances process-wide (merge-on-read over the shards).
  /// Exact whenever the ledger is quiescent; the same guarantee the old
  /// single atomic gave the RuntimeAuditor's leak arithmetic.
  static std::int64_t total() {
    std::int64_t sum = 0;
    for (std::size_t s = 0; s < kShards; ++s)
      sum += counters_[s].v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Counter {
    std::atomic<std::int64_t> v{0};
  };

  static std::atomic<std::int64_t>& counter(std::size_t shard) {
    const std::size_t slot =
        shard == PageShard::kUnbound ? 0 : 1 + shard % (kShards - 1);
    return counters_[slot].v;
  }

  // Defined out of class: an in-class inline definition would need the
  // nested Counter's default member initializer before the enclosing
  // class is complete.
  static Counter counters_[kShards];
};

inline PageLedger::Counter PageLedger::counters_[PageLedger::kShards]{};

class PagePool;
class PageRef;

/// A page is a fixed-size byte block. Pages are *immutable while shared*:
/// the owning PageTable may mutate a page only when it holds the sole
/// reference; otherwise it must copy first (copy-on-write). That discipline
/// is enforced by PageTable, not by this type.
///
/// A page is one allocation: this 16-byte header (reference count, size,
/// owning pool) followed by the page's bytes. It is not a value type: a
/// page is made by make_page or a PagePool, reached through PageRef, and
/// dies when its last reference drops — back into the pool that made it,
/// or to the system allocator. A pooled block that holds no page is not a
/// Page as far as the ledger is concerned.
///
/// Every live page is counted in a process-wide ledger (PageLedger, above)
/// so the runtime auditor can prove that eliminated worlds released their
/// pages (a leaked ref would pin memory for the lifetime of the
/// speculation tree): a block becoming a page counts +1, the drop of its
/// last reference -1.
class Page {
 public:
  Page(const Page&) = delete;
  Page& operator=(const Page&) = delete;

  std::size_t size() const { return size_; }
  const std::uint8_t* data() const {
    return reinterpret_cast<const std::uint8_t*>(this + 1);
  }
  std::uint8_t* mutable_data() {
    return reinterpret_cast<std::uint8_t*>(this + 1);
  }

  /// Pages currently alive in this process (sharded ledger, merge-on-read).
  static std::int64_t live_instances() { return PageLedger::total(); }

 private:
  friend class PageRef;
  friend class PagePool;
  friend PageRef make_page(std::size_t size);

  Page(std::size_t size, PagePool* pool)
      : size_(static_cast<std::uint32_t>(size)), pool_(pool) {}

  /// A block for a page of `size` bytes, zeroed when `zeroed` (calloc) —
  /// not yet a page. Aborts when the allocator fails.
  static void* alloc_block(std::size_t size, bool zeroed);

  /// Turns a block into a live page with one reference, owned by `pool`
  /// (null: freed when the last reference drops).
  static Page* revive(void* block, std::size_t size, PagePool* pool) {
    Page* p = new (block) Page(size, pool);
    PageLedger::add(1);
    return p;
  }

  void retain() { refs_.fetch_add(1, std::memory_order_relaxed); }
  void release() {
    if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) die();
  }
  /// The last reference dropped: leave the ledger, then return the block
  /// to its pool or free it (page_pool.cpp).
  void die();

  std::atomic<std::uint32_t> refs_{1};
  std::uint32_t size_;
  PagePool* pool_;
  // The page's bytes follow the header.
};

static_assert(sizeof(Page) == 16);

/// An intrusive reference to a Page: 8 bytes, a relaxed increment on copy
/// and an acq_rel decrement on drop, so a count of 1 read with acquire
/// (use_count) orders every other holder's accesses before an in-place
/// write.
class PageRef {
 public:
  PageRef() = default;
  PageRef(std::nullptr_t) {}  // null converts implicitly, as to a pointer
  PageRef(const PageRef& o) : p_(o.p_) {
    if (p_) p_->retain();
  }
  PageRef(PageRef&& o) noexcept : p_(std::exchange(o.p_, nullptr)) {}
  PageRef& operator=(PageRef o) noexcept {
    std::swap(p_, o.p_);
    return *this;
  }
  ~PageRef() {
    if (p_) p_->release();
  }

  /// Wraps `p` without taking a count: either the count `p` already holds
  /// for this reference, or none at all for a borrowed slot, which must be
  /// detach()ed rather than dropped.
  static PageRef adopt(Page* p) {
    PageRef r;
    r.p_ = p;
    return r;
  }
  /// Points this null reference at `o`'s page without taking a count: a
  /// borrowed slot, like adopt() with no count held.
  void borrow(const PageRef& o) { p_ = o.p_; }
  /// Gives up the pointer without dropping a count.
  Page* detach() { return std::exchange(p_, nullptr); }
  /// Takes one more count on the page — a borrowed slot becoming counted.
  void retain() const { p_->retain(); }

  Page* get() const { return p_; }
  Page& operator*() const { return *p_; }
  Page* operator->() const { return p_; }
  explicit operator bool() const { return p_ != nullptr; }
  long use_count() const {
    return p_ ? static_cast<long>(p_->refs_.load(std::memory_order_acquire))
              : 0;
  }
  void reset() { PageRef().swap(*this); }
  void swap(PageRef& o) noexcept { std::swap(p_, o.p_); }

  friend bool operator==(const PageRef& a, const PageRef& b) {
    return a.p_ == b.p_;
  }
  friend bool operator==(const PageRef& a, std::nullptr_t) {
    return a.p_ == nullptr;
  }

 private:
  Page* p_ = nullptr;
};

static_assert(sizeof(PageRef) == 8);

/// A zero-filled page of `size` bytes owned by no pool: its block is freed
/// when the last reference drops.
inline PageRef make_page(std::size_t size) {
  return PageRef::adopt(
      Page::revive(Page::alloc_block(size, true), size, nullptr));
}

}  // namespace mw
