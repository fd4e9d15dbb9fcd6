#include "pagestore/page_map.hpp"

#include <array>
#include <bit>
#include <utility>

#include "pagestore/page_pool.hpp"
#include "util/check.hpp"

namespace mw {

// A node is either an inner node (Inner: 64 children) or a leaf (Leaf: 64
// page references plus 64 generation tags); which one is fixed by its level
// in the tree, and `leaf` records it for the walks that do not track the
// level. Each kind holds its slots in inline arrays, so allocate_shared
// puts control block and slots in one block and a path copy costs exactly
// one block per node, taken from the calling worker's free list in the
// global PagePool (make_node); a leaf carries no child array and an inner
// node no page array. Shared nodes are immutable: slot_for_write clones
// any node whose use_count exceeds 1 before descending through it.
// settle() is the one exception: it rewrites only ownership bookkeeping,
// and only in nodes no other map reaches.
struct PageMap::Node {
  explicit Node(bool is_leaf) : leaf(is_leaf) {}

  const bool leaf;
  // A leaf: it holds a source. An inner node: some leaf below may (set on
  // every inner node a borrowing map walks through; copies inherit it).
  bool borrows = false;
  std::size_t resident = 0;  // resident pages in this whole subtree
};

struct PageMap::Inner : Node {
  Inner() : Node(false) {}
  std::array<NodeRef, kFanout> children;
};

struct PageMap::Leaf : Node {
  struct Borrow {};

  Leaf() : Node(true) {}

  // A counted copy: every page gains a count and nothing is borrowed, so
  // the copy is self-contained whatever `o` borrows.
  Leaf(const Leaf& o) : Node(true), pages(o.pages), tags(o.tags) {
    resident = o.resident;
  }

  // A borrowing copy of the leaf `from` points to: the same pages and
  // tags, none of them counted, kept alive by holding `from`. The page
  // pointers are copied as raw pointers and the borrowed mask is built
  // without a branch per slot.
  Leaf(Borrow, NodeRef from) : Node(true), tags(as_leaf(*from).tags) {
    const Leaf& o = as_leaf(*from);
    resident = o.resident;
    for (std::size_t i = 0; i < kFanout; ++i) {
      pages[i].borrow(o.pages[i]);
      borrowed |= std::uint64_t{o.pages[i] != nullptr} << i;
    }
    if (borrowed != 0) {
      src = std::move(from);
      borrows = true;
    }
  }

  Leaf& operator=(const Leaf&) = delete;

  ~Leaf() {
    for (std::uint64_t b = borrowed; b != 0; b &= b - 1)
      pages[static_cast<std::size_t>(std::countr_zero(b))].detach();
  }

  std::array<PageRef, kFanout> pages;
  std::array<std::uint64_t, kFanout> tags{};  // parallel to pages
  std::uint64_t borrowed = 0;  // slots whose page this leaf does not count
  NodeRef src;                 // the leaf borrowed from; null if none
};

namespace {

// Node blocks come from the global pool (PagePool::allocate_node).
template <typename T>
struct NodeAllocator {
  using value_type = T;
  NodeAllocator() = default;
  template <typename U>
  NodeAllocator(const NodeAllocator<U>&) {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(PagePool::global().allocate_node(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) {
    PagePool::global().free_node(p, n * sizeof(T));
  }
  friend bool operator==(const NodeAllocator&, const NodeAllocator&) {
    return true;
  }
};

template <typename T, typename... Args>
std::shared_ptr<T> make_node(Args&&... args) {
  return std::allocate_shared<T>(NodeAllocator<T>{},
                                 std::forward<Args>(args)...);
}

}  // namespace

PageMap::Inner& PageMap::as_inner(Node& n) { return static_cast<Inner&>(n); }
PageMap::Leaf& PageMap::as_leaf(Node& n) { return static_cast<Leaf&>(n); }
const PageMap::Inner& PageMap::as_inner(const Node& n) {
  return static_cast<const Inner&>(n);
}
const PageMap::Leaf& PageMap::as_leaf(const Node& n) {
  return static_cast<const Leaf&>(n);
}

const PageMap::Node* PageMap::kid(const Node* n, std::size_t i) {
  return n ? as_inner(*n).children[i].get() : nullptr;
}

const Page* PageMap::page_at(const Node* n, std::size_t i) {
  return n ? as_leaf(*n).pages[i].get() : nullptr;
}

PageMap::PageMap(std::size_t num_pages) : num_pages_(num_pages), depth_(1) {
  // Smallest depth whose capacity covers the address space; an empty map is
  // just a null root, so construction is O(1) no matter the size. Shifting
  // the last index down, rather than growing a capacity up, cannot overflow
  // for a count near 2^64 (a forged checkpoint geometry).
  for (std::size_t rest = num_pages_ > 0 ? (num_pages_ - 1) >> kFanoutBits : 0;
       rest != 0; rest >>= kFanoutBits)
    ++depth_;
}

PageMap::PageMap(const PageMap& o)
    : num_pages_(o.num_pages_), depth_(o.depth_), root_(o.root_) {
  // The copy shares every node with `o`: neither side may keep a cached
  // exclusively-owned leaf, and `o` stops borrowing — its leaves are now
  // reachable from a map that may outlive the block.
  o.cached_pages_.store(nullptr, std::memory_order_relaxed);
  o.borrowing_.store(false, std::memory_order_relaxed);
}

PageMap::PageMap(PageMap&& o) noexcept
    : num_pages_(o.num_pages_),
      depth_(o.depth_),
      root_(std::move(o.root_)),
      borrowing_(o.borrowing_.load(std::memory_order_relaxed)),
      cached_pages_(o.cached_pages_.load(std::memory_order_relaxed)),
      cached_tags_(o.cached_tags_),
      cached_borrowed_(o.cached_borrowed_),
      cached_prefix_(o.cached_prefix_) {
  // Ownership transferred wholesale: the cache stays valid here, but the
  // moved-from map must never serve it again.
  o.cached_pages_.store(nullptr, std::memory_order_relaxed);
}

PageMap& PageMap::operator=(const PageMap& o) {
  num_pages_ = o.num_pages_;
  depth_ = o.depth_;
  root_ = o.root_;
  cached_pages_.store(nullptr, std::memory_order_relaxed);
  o.cached_pages_.store(nullptr, std::memory_order_relaxed);
  borrowing_.store(false, std::memory_order_relaxed);
  o.borrowing_.store(false, std::memory_order_relaxed);
  return *this;
}

PageMap& PageMap::operator=(PageMap&& o) noexcept {
  num_pages_ = o.num_pages_;
  depth_ = o.depth_;
  root_ = std::move(o.root_);
  borrowing_.store(o.borrowing_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  cached_pages_.store(o.cached_pages_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  cached_tags_ = o.cached_tags_;
  cached_borrowed_ = o.cached_borrowed_;
  cached_prefix_ = o.cached_prefix_;
  o.cached_pages_.store(nullptr, std::memory_order_relaxed);
  return *this;
}

std::size_t PageMap::child_index(std::size_t i, int level) const {
  const int shift = (depth_ - 1 - level) * static_cast<int>(kFanoutBits);
  return (i >> shift) & (kFanout - 1);
}

const Page* PageMap::peek(std::size_t i) const {
  MW_CHECK(i < num_pages_);
  const Node* n = root_.get();
  for (int level = 0; n && level + 1 < depth_; ++level)
    n = kid(n, child_index(i, level));
  return page_at(n, child_index(i, depth_ - 1));
}

PageMap::Slot PageMap::slot_for_write_slow(std::size_t i) {
  MW_CHECK(i < num_pages_);
  const std::size_t prefix = i >> kFanoutBits;
  const bool borrow = borrowing();
  NodeRef* link = &root_;
  for (int level = 0;; ++level) {
    const bool at_leaf = (level + 1 == depth_);
    if (!*link) {
      if (at_leaf) {
        *link = make_node<Leaf>();
      } else {
        *link = make_node<Inner>();
      }
    } else if (link->use_count() > 1) {
      // Path copy: this node is shared with a forked sibling/ancestor map.
      // Cloning copies kFanout child/page references but no page data, in
      // one allocation; a borrowing map's leaf copy counts no page.
      if (at_leaf) {
        *link = borrow ? make_node<Leaf>(Leaf::Borrow{}, *link)
                       : make_node<Leaf>(as_leaf(**link));
      } else {
        *link = make_node<Inner>(as_inner(**link));
      }
    }
    const std::size_t idx = child_index(i, level);
    if (at_leaf) {
      Leaf& n = as_leaf(**link);
      // The walk just certified exclusive ownership of the whole path;
      // remember the leaf's slot arrays so locality-friendly writers take
      // the inline fast path on the next write.
      cached_prefix_ = prefix;
      cached_tags_ = n.tags.data();
      cached_borrowed_ = &n.borrowed;
      cached_pages_.store(n.pages.data(), std::memory_order_relaxed);
      return Slot{&n.pages[idx], &n.tags[idx], &n.borrowed,
                  std::uint64_t{1} << idx};
    }
    if (borrow) (*link)->borrows = true;  // settle() must look below
    link = &as_inner(**link).children[idx];
  }
}

void PageMap::note_resident(std::size_t i) {
  MW_CHECK(i < num_pages_);
  Node* n = root_.get();
  for (int level = 0;; ++level) {
    MW_CHECK(n != nullptr);
    ++n->resident;
    if (level + 1 == depth_) return;
    n = as_inner(*n).children[child_index(i, level)].get();
  }
}

std::size_t PageMap::resident() const { return root_ ? root_->resident : 0; }

void PageMap::settle() { settle_rec(root_); }

// Settles the part of the subtree at `link` that no other map reaches;
// returns whether anything below still borrows.
bool PageMap::settle_rec(NodeRef& link) {
  Node* n = link.get();
  if (n == nullptr || !n->borrows) return false;
  if (link.use_count() > 1) return true;  // shared: leave it as it is
  if (n->leaf) {
    settle_leaf(as_leaf(*n));
    return n->borrows;
  }
  bool below = false;
  for (NodeRef& c : as_inner(*n).children) below = settle_rec(c) || below;
  n->borrows = below;
  return below;
}

void PageMap::settle_leaf(Leaf& l) {
  if (l.src.use_count() == 1) {
    // The only holder of the source: its counts for the slots borrowed
    // here become this leaf's, so dropping the source frees exactly the
    // pages this leaf replaced. Slots the source borrows in turn stay
    // borrowed, from the source's own source.
    Leaf& s = as_leaf(*l.src);
    const std::uint64_t take = l.borrowed & ~s.borrowed;
    s.borrowed |= take;
    l.borrowed &= ~take;
    NodeRef next = l.borrowed != 0 ? s.src : nullptr;
    l.src = std::move(next);
  } else {
    for (std::uint64_t b = l.borrowed; b != 0; b &= b - 1)
      l.pages[static_cast<std::size_t>(std::countr_zero(b))].retain();
    l.borrowed = 0;
    l.src.reset();
  }
  l.borrows = l.src != nullptr;
}

std::size_t PageMap::shared_rec(const Node* a, const Node* b) {
  if (!a || !b) return 0;
  if (a == b) return a->resident;  // whole subtree shared: prune
  std::size_t n = 0;
  if (a->leaf) {
    for (std::size_t i = 0; i < kFanout; ++i)
      if (page_at(a, i) && page_at(a, i) == page_at(b, i)) ++n;
    return n;
  }
  for (std::size_t i = 0; i < kFanout; ++i)
    n += shared_rec(kid(a, i), kid(b, i));
  return n;
}

std::size_t PageMap::shared_with(const PageMap& other) const {
  MW_CHECK(other.num_pages_ == num_pages_);
  return shared_rec(root_.get(), other.root_.get());
}

void PageMap::diff_rec(const Node* a, const Node* b, std::size_t base,
                       int level, std::vector<std::size_t>& out) const {
  if (a == b) return;  // includes both-null: identical, prune
  if (!a && b && b->resident == 0) return;
  if (!b && a && a->resident == 0) return;
  if (level + 1 == depth_) {
    for (std::size_t i = 0; i < kFanout; ++i) {
      const std::size_t idx = base + i;
      if (idx < num_pages_ && page_at(a, i) != page_at(b, i))
        out.push_back(idx);
    }
    return;
  }
  const std::size_t span = std::size_t{1}
                           << (static_cast<std::size_t>(depth_ - 1 - level) *
                               kFanoutBits);
  for (std::size_t i = 0; i < kFanout; ++i)
    diff_rec(kid(a, i), kid(b, i), base + i * span, level + 1, out);
}

std::vector<std::size_t> PageMap::diff(const PageMap& other) const {
  MW_CHECK(other.num_pages_ == num_pages_);
  std::vector<std::size_t> out;
  diff_rec(root_.get(), other.root_.get(), 0, 0, out);
  return out;
}

void PageMap::collect_rec(const Node* n,
                          std::unordered_set<const Page*>& out) {
  if (!n) return;
  if (n->leaf) {
    for (const PageRef& p : as_leaf(*n).pages)
      if (p) out.insert(p.get());
    return;
  }
  for (const NodeRef& c : as_inner(*n).children) collect_rec(c.get(), out);
}

void PageMap::collect_pages(std::unordered_set<const Page*>& out) const {
  collect_rec(root_.get(), out);
}

std::size_t PageMap::count_tags_rec(const Node* n, std::uint64_t epoch) {
  if (!n || n->resident == 0) return 0;
  std::size_t count = 0;
  if (n->leaf) {
    const Leaf& l = as_leaf(*n);
    for (std::size_t i = 0; i < kFanout; ++i)
      if (l.pages[i] && l.tags[i] > epoch) ++count;
    return count;
  }
  for (const NodeRef& c : as_inner(*n).children)
    count += count_tags_rec(c.get(), epoch);
  return count;
}

std::size_t PageMap::count_written_since(std::uint64_t epoch) const {
  return count_tags_rec(root_.get(), epoch);
}

}  // namespace mw
