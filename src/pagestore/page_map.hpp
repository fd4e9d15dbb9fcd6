// PageMap: a persistent (path-copy-on-write) radix tree of page references.
//
// The flat page table made fork O(pages): the child copied the whole slot
// vector, which is exactly the linear fork-latency growth the paper measures
// in §2.3. The PageMap instead stores the slots in an N-ary radix tree
// (fanout 64) whose nodes are themselves reference-counted and immutable
// while shared — the same COW discipline the Page layer applies to data,
// lifted one level up to the *map*. Consequences:
//
//   * fork    — copy the root pointer: O(1) regardless of address-space size;
//   * adopt   — swap the root pointer: O(1);
//   * write   — path-copy the ≤ depth shared nodes on the route to the leaf
//               (depth = ceil(log64 num_pages) ≤ 3 for 2^18 pages), then
//               mutate in place: O(1) amortised, O(depth·fanout) worst case;
//   * diff / shared_pages_with — prune entire subtrees the moment the two
//               maps reference the same node: O(divergence), not O(pages).
//
// Write-fraction bookkeeping rides in per-leaf *generation tags*: every slot
// remembers the owning table's write-generation at its last write, and the
// table compares tags against the generation it recorded at the last
// fork/adopt. Because a write always path-copies shared nodes first, tag
// updates are private to the writing map — a forked sibling keeps seeing the
// old tags through its own root.
//
// Borrowing: a map forked for a child that lives only inside its parent's
// alternative block (PageTable::fork_scoped) path-copies a leaf without
// counting its pages. The copy marks every resident slot *borrowed* and
// holds the leaf it was copied from (its source), which keeps those pages
// alive: one node count instead of 64 page counts. A borrowed slot is
// never written in place, and a leaf never drops the count of a borrowed
// page. settle() ends borrowing once the block is over. See DESIGN.md
// "Persistent page maps".
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "pagestore/page.hpp"

namespace mw {

class PageMap {
 public:
  static constexpr std::size_t kFanoutBits = 6;
  static constexpr std::size_t kFanout = std::size_t{1} << kFanoutBits;

  explicit PageMap(std::size_t num_pages);

  // Copying a PageMap shares the whole tree structurally (root refcount
  // bump): this *is* the O(1) fork. The special members are hand-written
  // to manage the write cache and the borrowing mode: copying introduces
  // sharing, so both sides drop their cached leaf and stop borrowing (the
  // copy may outlive any block); moving transfers both.
  PageMap(const PageMap& o);
  PageMap(PageMap&& o) noexcept;
  PageMap& operator=(const PageMap& o);
  PageMap& operator=(PageMap&& o) noexcept;

  std::size_t num_pages() const { return num_pages_; }
  int depth() const { return depth_; }

  /// Read-only page lookup; nullptr means the zero page. O(depth).
  const Page* peek(std::size_t i) const;

  /// Mutable access to slot `i`'s page reference and generation tag, after
  /// path-copying every node on the route that is shared with another map.
  /// If the caller materialises a page into a previously-empty slot it must
  /// follow up with note_resident(i).
  struct Slot {
    PageRef* page;
    std::uint64_t* tag;
    std::uint64_t* borrowed;  // the leaf's borrowed mask
    std::uint64_t bit;        // this slot's bit in *borrowed

    /// The page is held through the leaf's source, not counted here: it
    /// must not be written in place.
    bool is_borrowed() const { return (*borrowed & bit) != 0; }
    /// Replaces the slot's page; a borrowed old page is let go uncounted.
    void install(PageRef p) const {
      if (is_borrowed()) {
        page->detach();
        *borrowed &= ~bit;
      }
      *page = std::move(p);
    }
  };
  Slot slot_for_write(std::size_t i);  // inline fast path, defined below

  /// Records that slot `i` just went empty→resident, bumping the subtree
  /// resident counters along its (uniquely-owned, post-slot_for_write) path.
  void note_resident(std::size_t i);

  /// Whether leaf path copies in this map borrow (see the file comment).
  /// Only PageTable::fork_scoped turns it on; copying a map turns it off
  /// on both sides.
  bool borrowing() const { return borrowing_.load(std::memory_order_relaxed); }
  void set_borrowing(bool on) {
    borrowing_.store(on, std::memory_order_relaxed);
  }

  /// Ends borrowing in the part of the tree no other map reaches. A leaf
  /// that is the only holder of its source takes over the source's counts
  /// for its borrowed slots (a mask update, no atomic), and dropping the
  /// source then frees exactly the pages this map overwrote; a leaf whose
  /// source is still held elsewhere counts its borrowed pages instead.
  /// Slots the source itself borrows stay borrowed, from the source's
  /// source. O(nodes path-copied while borrowing).
  void settle();

  /// Resident pages in the whole map. O(1) — maintained per subtree.
  std::size_t resident() const;

  /// Pages physically shared with `other` (same Page object in the same
  /// slot). Identical subtrees are counted wholesale without descending.
  std::size_t shared_with(const PageMap& other) const;

  /// Ascending indices whose slots reference different pages. Identical
  /// subtrees are skipped wholesale.
  std::vector<std::size_t> diff(const PageMap& other) const;

  /// Inserts every distinct resident Page into `out` (auditor reachability).
  void collect_pages(std::unordered_set<const Page*>& out) const;

  /// Resident pages whose generation tag exceeds `epoch`.
  std::size_t count_written_since(std::uint64_t epoch) const;

 private:
  struct Node;   // what a NodeRef points to: the kind flag and count
  struct Inner;  // a Node with kFanout children
  struct Leaf;   // a Node with kFanout page references and tags
  using NodeRef = std::shared_ptr<Node>;

  static Inner& as_inner(Node& n);
  static Leaf& as_leaf(Node& n);
  static const Inner& as_inner(const Node& n);
  static const Leaf& as_leaf(const Node& n);
  /// Child `i` of inner node `n`, or page `i` of leaf `n`; null when `n`
  /// is null (an absent subtree).
  static const Node* kid(const Node* n, std::size_t i);
  static const Page* page_at(const Node* n, std::size_t i);

  std::size_t child_index(std::size_t i, int level) const;
  Slot slot_for_write_slow(std::size_t i);
  static std::size_t shared_rec(const Node* a, const Node* b);
  void diff_rec(const Node* a, const Node* b, std::size_t base, int level,
                std::vector<std::size_t>& out) const;
  static void collect_rec(const Node* n, std::unordered_set<const Page*>& out);
  static std::size_t count_tags_rec(const Node* n, std::uint64_t epoch);
  static bool settle_rec(NodeRef& link);
  static void settle_leaf(Leaf& l);

  std::size_t num_pages_;
  int depth_;  // levels in the tree, ≥ 1; leaves sit at level depth_-1
  NodeRef root_;
  mutable std::atomic<bool> borrowing_{false};

  // Write cache: the slot arrays of the leaf most recently reached by a
  // full slot_for_write walk (stable for the leaf's lifetime — leaves never
  // resize). A cache entry certifies that every node on the path to that
  // leaf was exclusively owned at walk time — and exclusive ownership can
  // only be lost by copying this PageMap, which invalidates the cache on
  // both sides. Repeated writes with leaf locality therefore skip the walk
  // and the per-node use-count checks entirely (the hot-loop case: a world
  // mutating its own resident pages). The guard pointer is atomic so that
  // two concurrent fork() calls on the same map (const, legal, both of
  // which null the source cache) don't race; writes still require
  // exclusive access to the map, as they always did.
  mutable std::atomic<PageRef*> cached_pages_{nullptr};
  mutable std::uint64_t* cached_tags_ = nullptr;
  mutable std::uint64_t* cached_borrowed_ = nullptr;
  mutable std::size_t cached_prefix_ = 0;  // page index >> kFanoutBits
};

inline PageMap::Slot PageMap::slot_for_write(std::size_t i) {
  const std::size_t prefix = i >> kFanoutBits;
  PageRef* pages = cached_pages_.load(std::memory_order_relaxed);
  if (pages != nullptr && prefix == cached_prefix_ && i < num_pages_) {
    const std::size_t idx = i & (kFanout - 1);
    return Slot{pages + idx, cached_tags_ + idx, cached_borrowed_,
                std::uint64_t{1} << idx};
  }
  return slot_for_write_slow(i);
}

}  // namespace mw
