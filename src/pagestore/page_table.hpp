// Copy-on-write page table with parent inheritance (§2.3).
//
// The paper measures fork latency growing linearly with address-space size
// because a fork copies the table of page references. This implementation
// removes that cost: the slots live in a persistent radix tree (PageMap),
// so fork() is a root-pointer copy, adopt() a root swap, and only writes
// pay — a bounded path copy (≤ tree depth nodes) on first touch, then the
// usual one-page COW break. Fork, receiver splits and commits are therefore
// O(1) in address-space size; see DESIGN.md "Persistent page maps".
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "pagestore/page.hpp"
#include "pagestore/page_map.hpp"

namespace mw {

/// Accounting for the COW machinery; feeds the paper's τ(overhead)
/// decomposition and the write-fraction measurements (§3.4).
struct CowStats {
  std::uint64_t pages_allocated = 0;  // frames taken for absent pages
  std::uint64_t pages_copied = 0;     // COW breaks (private frames taken)
  std::uint64_t bytes_copied = 0;     // data actually copied for COW breaks;
                                      // 0 for a break by a whole-page write
  std::uint64_t page_writes = 0;      // write operations (not distinct pages)
  std::uint64_t page_reads = 0;
  std::uint64_t pool_hits = 0;    // frames recycled from the PagePool
  std::uint64_t pool_misses = 0;  // frames that hit the system allocator

  /// Absorbs a child's accounting into this one (used exactly once per
  /// adopt so nested speculation trees never double-count).
  void merge(const CowStats& o) {
    pages_allocated += o.pages_allocated;
    pages_copied += o.pages_copied;
    bytes_copied += o.bytes_copied;
    page_writes += o.page_writes;
    page_reads += o.page_reads;
    pool_hits += o.pool_hits;
    pool_misses += o.pool_misses;
  }

  void reset() { *this = CowStats{}; }
};

class PageTable {
 public:
  /// An address space of `num_pages` pages of `page_size` bytes, initially
  /// entirely absent (reads see zeros; first write allocates).
  PageTable(std::size_t page_size, std::size_t num_pages);

  std::size_t page_size() const { return page_size_; }
  std::size_t num_pages() const { return map_.num_pages(); }
  std::size_t size_bytes() const { return page_size_ * num_pages(); }

  /// Read-only view of page `i`; nullptr means the zero page.
  const Page* peek(std::size_t i) const;

  /// Writable pointer to page `i`, allocating or COW-copying as needed.
  /// Inline so the exclusively-owned-page fast path (cached leaf, no
  /// allocation, no COW break) compiles down to a few loads per write.
  std::uint8_t* write_page(std::size_t i) { return writable(i, false); }

  /// Reads `dst.size()` bytes at byte offset `off`; absent pages read as 0.
  void read(std::uint64_t off, std::span<std::uint8_t> dst) const;

  /// Writes `src` at byte offset `off`, breaking sharing where needed. A
  /// page the write covers whole is a blind write: its fresh frame is
  /// neither copied from the shared page nor zero-filled.
  void write(std::uint64_t off, std::span<const std::uint8_t> src);

  /// COW fork: child shares every page with this table. O(1) — the child
  /// takes a reference to the same radix-tree root.
  PageTable fork() const;

  /// A fork for a child that lives only inside this table's alternative
  /// block: its leaf path copies borrow this table's pages instead of
  /// counting them (see PageMap). Copy decisions and page counts match a
  /// fork() exactly provided this table is not written, and keeps its
  /// map, until the child has been adopted or dropped. Forking the child
  /// in turn stops it borrowing.
  PageTable fork_scoped() const;

  /// The paper's commit: "the parent process absorbs the state changes made
  /// by its child by atomically replacing its page pointer with that of the
  /// child". O(1) root swap; stats are merged exactly once. The old map is
  /// released first, then the adopted one is settled (PageMap::settle, in
  /// time proportional to what a scoped child path-copied), so a scoped
  /// child's borrowing ends here. This table keeps its own borrowing mode.
  void adopt(PageTable&& child);

  /// Number of resident (allocated) pages. O(1).
  std::size_t resident_pages() const;

  /// Number of pages physically shared with `other` (same Page object).
  /// Shared subtrees are counted wholesale, so the cost scales with the
  /// divergence between the two maps, not the address-space size.
  std::size_t shared_pages_with(const PageTable& other) const;

  /// Page indices where this table and `other` reference different pages.
  std::vector<std::size_t> diff(const PageTable& other) const;

  /// Inserts the distinct resident Page objects this table references into
  /// `out` — the reachability set for the runtime auditor's leak check.
  void collect_pages(std::unordered_set<const Page*>& out) const;

  /// Fraction of resident pages privately copied/written since the last
  /// fork: the paper's "write fraction" (observed 0.2–0.5 in [18]).
  /// Tracked via per-leaf generation tags: a page counts as written when
  /// its tag exceeds the generation recorded at the last fork/adopt.
  double write_fraction() const;

  const CowStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

 private:
  /// Writable page `i`. With `blind` set the caller overwrites the whole
  /// page, so a fresh frame needs neither the old bytes nor zeros.
  std::uint8_t* writable(std::size_t i, bool blind) {
    PageMap::Slot slot = map_.slot_for_write(i);
    PageRef& ref = *slot.page;
    if (!ref) {
      materialize_slot(ref, i, blind);
    } else if (slot.is_borrowed() || ref.use_count() > 1) {
      cow_break_slot(slot, i, blind);
    }
    *slot.tag = ++gen_;
    ++stats_.page_writes;
    return ref->mutable_data();
  }
  /// Demand allocation into an empty slot (cold path), zero-filled unless
  /// `blind`.
  void materialize_slot(PageRef& ref, std::size_t i, bool blind);
  /// Private frame for a page inherited from / shared with another world,
  /// holding a copy of it unless `blind`.
  void cow_break_slot(const PageMap::Slot& slot, std::size_t i, bool blind);

  std::size_t page_size_;
  PageMap map_;
  std::uint64_t gen_ = 0;    // bumped on every write through this table
  std::uint64_t epoch_ = 0;  // generation at the last fork/adopt
  CowStats stats_;
};

}  // namespace mw
