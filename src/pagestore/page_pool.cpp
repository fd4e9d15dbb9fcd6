#include "pagestore/page_pool.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "trace/spec_profile.hpp"
#include "util/check.hpp"

namespace mw {

namespace {

// A free block's first word links it into a list.
struct FreeBlock {
  FreeBlock* next;
};

constexpr std::uint32_t kNodeKey = std::uint32_t{1} << 31;

using Counter = std::atomic<std::uint64_t>;

// A worker's counters have one writer, the slot's owner: a plain load and
// store, no read-modify-write. The shared heap's are written by any thread
// that holds no slot.
void bump(Counter& c) {
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}
void add(Counter& c) { c.fetch_add(1, std::memory_order_relaxed); }

std::size_t free_chain(FreeBlock* b) {
  std::size_t n = 0;
  while (b != nullptr) {
    FreeBlock* next = b->next;
    std::free(b);
    b = next;
    ++n;
  }
  return n;
}

void* alloc_raw(std::size_t bytes, bool zeroed) {
  void* raw = zeroed ? std::calloc(1, bytes) : std::malloc(bytes);
  MW_CHECK(raw != nullptr);
  return raw;
}

// Pools that PageShard::unbind() hands a slot's lists to.
struct Registry {
  std::mutex mu;
  std::vector<PagePool*> pools;
};

Registry& registry() {
  static Registry r;
  return r;
}

struct Counters {
  Counter hits{0}, misses{0}, recycled{0}, dropped{0}, refills{0}, spills{0};
};

// Where a thread that frees a block it does not keep starts looking for a
// worker to give it to (see give_away).
thread_local std::size_t t_cursor = 0;

}  // namespace

// One size class of one heap: the owner's list, and the stack other threads
// push blocks onto for the owner, on its own cacheline. The owner of a
// worker's heap is the slot's holder; of the shared heap, whoever holds
// the shared mutex.
//
// Counts: a pusher counts a block on `stack_n` before it pushes it, and the
// owner moves the count over when it takes the stack. So `n` may count a
// block whose push has not landed yet — it arrives with the next take — but
// never one that is not coming, and n + stack_n summed over every bin is
// exact whenever no push is in flight.
struct alignas(64) PagePool::Bin : Counters {
  FreeBlock* head = nullptr;
  std::atomic<std::int64_t> n{0};

  alignas(64) std::atomic<FreeBlock*> stack{nullptr};
  std::atomic<std::int64_t> stack_n{0};

  std::int64_t held() const {
    return n.load(std::memory_order_relaxed) +
           stack_n.load(std::memory_order_relaxed);
  }

  /// Owner side.
  FreeBlock* pop() {
    FreeBlock* b = head;
    if (b == nullptr) return nullptr;
    head = b->next;
    // The next pop reads that block's link: fetch its line meanwhile, as
    // it was last written on whichever core freed it.
    if (head != nullptr) __builtin_prefetch(head, 1);
    n.store(n.load(std::memory_order_relaxed) - 1, std::memory_order_relaxed);
    return b;
  }
  void push(FreeBlock* b) {
    b->next = head;
    head = b;
    n.store(n.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  /// Owner side, on an empty list: the stack becomes the list, in one
  /// exchange. False when the stack was empty.
  bool take_stack() {
    FreeBlock* chain = stack.exchange(nullptr, std::memory_order_acquire);
    if (chain == nullptr) return false;
    head = chain;
    n.store(n.load(std::memory_order_relaxed) +
                stack_n.exchange(0, std::memory_order_relaxed),
            std::memory_order_relaxed);
    return true;
  }
  /// Any thread: pushes `b` for the owner unless `cap` blocks wait already.
  bool offer(FreeBlock* b, std::int64_t cap) {
    if (stack_n.load(std::memory_order_relaxed) >= cap) return false;
    stack_n.fetch_add(1, std::memory_order_relaxed);
    FreeBlock* top = stack.load(std::memory_order_relaxed);
    do {
      b->next = top;
    } while (!stack.compare_exchange_weak(
        top, b, std::memory_order_release, std::memory_order_relaxed));
    return true;
  }
  /// Frees the stack; returns how many blocks that was. Any thread.
  std::size_t free_stack() {
    const std::size_t k =
        free_chain(stack.exchange(nullptr, std::memory_order_acquire));
    stack_n.fetch_sub(static_cast<std::int64_t>(k), std::memory_order_relaxed);
    return k;
  }
  /// Owner side: frees the list and the stack; returns how many blocks.
  std::size_t release() {
    n.store(0, std::memory_order_relaxed);
    return free_chain(std::exchange(head, nullptr)) + free_stack();
  }
};

struct PagePool::Heap {
  Bin bins[kClasses];
};

PagePool::PagePool() : heaps_(new Heap[shard_count()]) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.pools.push_back(this);
}

PagePool::~PagePool() {
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    std::erase(r.pools, this);
  }
  for (std::size_t h = 0; h < shard_count(); ++h)
    for (Bin& b : heaps_[h].bins) b.release();
}

PagePool& PagePool::global() {
  static PagePool pool;
  return pool;
}

void PageShard::unbind() {
  const std::size_t s = bound_;
  if (s == kUnbound) return;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (PagePool* p : r.pools) p->hand_back(s);
  }
  bound_ = kUnbound;
  claimed_.fetch_and(~(std::uint32_t{1} << s), std::memory_order_release);
}

void* Page::alloc_block(std::size_t size, bool zeroed) {
  MW_CHECK(size <= UINT32_MAX);
  return alloc_raw(sizeof(Page) + size, zeroed);
}

void Page::die() {
  PageLedger::add(-1);  // before the block is cached or freed
  if (pool_ == nullptr) {
    std::free(this);
    return;
  }
  pool_->give_back(this, static_cast<std::uint32_t>(sizeof(Page) + size_));
}

std::size_t PagePool::class_of(std::uint32_t key, bool claim) {
  for (std::size_t c = 0; c < kClasses; ++c) {
    std::uint32_t k = class_key_[c].load(std::memory_order_relaxed);
    if (k == 0 && claim)
      class_key_[c].compare_exchange_strong(k, key, std::memory_order_relaxed);
    if (k == key || (k == 0 && claim)) return c;  // found it, or claimed it
    if (k == 0) break;
  }
  return kClasses;
}

void* PagePool::take(std::uint32_t key, std::size_t bytes, bool zeroed,
                     bool* hit) {
  const std::size_t c = class_of(key, true);
  FreeBlock* b = nullptr;
  if (c < kClasses) {
    Bin& shared = heaps_[0].bins[c];
    const std::size_t slot = PageShard::current();
    if (slot != PageShard::kUnbound) {
      Bin& own = heaps_[1 + slot].bins[c];
      if (own.head == nullptr) {
        if (!own.take_stack()) {
          // Both empty: whatever the shared heap holds, under its mutex.
          std::lock_guard<std::mutex> lock(shared_mu_);
          if (shared.head != nullptr || shared.take_stack()) {
            own.head = std::exchange(shared.head, nullptr);
            own.n.store(own.n.load(std::memory_order_relaxed) +
                            shared.n.exchange(0, std::memory_order_relaxed),
                        std::memory_order_relaxed);
          }
        }
        if (own.head != nullptr) bump(own.refills);
      }
      b = own.pop();
      bump(b != nullptr ? own.hits : own.misses);
    } else {
      std::lock_guard<std::mutex> lock(shared_mu_);
      if (shared.head == nullptr) shared.take_stack();
      b = shared.pop();
      add(b != nullptr ? shared.hits : shared.misses);
    }
  }
  *hit = b != nullptr;
  return b != nullptr ? b : alloc_raw(bytes, zeroed);
}

bool PagePool::give_away(std::size_t c, void* block, std::size_t self) {
  auto* b = static_cast<FreeBlock*>(block);
  const auto cap = static_cast<std::int64_t>(capacity_per_class());
  // Round robin over the other held slots, so every worker gets its share
  // of what a race's parent frees at commit; then the shared heap.
  std::uint32_t others = PageShard::claimed();
  if (self != PageShard::kUnbound) others &= ~(std::uint32_t{1} << self);
  for (int tries = std::popcount(others); tries > 0; --tries) {
    const std::size_t from = t_cursor % PageShard::kSlots;
    const std::uint32_t ahead =
        std::rotr(others, static_cast<int>(from));  // bit i: slot from + i
    const std::size_t s =
        (from + static_cast<std::size_t>(std::countr_zero(ahead))) %
        PageShard::kSlots;
    t_cursor = s + 1;
    if (heaps_[1 + s].bins[c].offer(b, owner_cap())) return true;
  }
  return heaps_[0].bins[c].offer(b, cap);
}

void PagePool::give_back(void* block, std::uint32_t key) {
  const std::size_t c = class_of(key, false);
  if (c == kClasses) {
    std::free(block);
    return;
  }
  const std::size_t slot = PageShard::current();
  if (slot == PageShard::kUnbound) {
    Bin& shared = heaps_[0].bins[c];
    if (give_away(c, block, slot)) {
      add(shared.recycled);
      add(shared.spills);
    } else {
      std::free(block);
      add(shared.dropped);
    }
    return;
  }
  Bin& own = heaps_[1 + slot].bins[c];
  if (own.n.load(std::memory_order_relaxed) < owner_cap()) {
    own.push(static_cast<FreeBlock*>(block));
    bump(own.recycled);
  } else if (give_away(c, block, slot)) {
    bump(own.recycled);
    bump(own.spills);
  } else {
    std::free(block);
    bump(own.dropped);
  }
}

void PagePool::hand_back(std::size_t slot) {
  std::lock_guard<std::mutex> lock(shared_mu_);
  for (std::size_t c = 0; c < kClasses; ++c) {
    Bin& own = heaps_[1 + slot].bins[c];
    do {
      while (FreeBlock* b = own.pop()) heaps_[0].bins[c].push(b);
    } while (own.take_stack());
  }
}

PageRef PagePool::take_page(std::size_t size, bool zeroed, bool* was_hit) {
  MW_CHECK(size <= INT32_MAX - sizeof(Page));
  const std::size_t bytes = sizeof(Page) + size;
  bool hit = false;
  void* block = take(static_cast<std::uint32_t>(bytes), bytes, zeroed, &hit);
  if (was_hit) *was_hit = hit;
  if (hit && zeroed)  // a fresh calloc is zero already
    std::memset(static_cast<std::uint8_t*>(block) + sizeof(Page), 0, size);
  return PageRef::adopt(Page::revive(block, size, this));
}

PageRef PagePool::acquire_uninit(std::size_t size, bool* was_hit) {
  return take_page(size, false, was_hit);
}

PageRef PagePool::acquire_zeroed(std::size_t size, bool* was_hit) {
  return take_page(size, true, was_hit);
}

PageRef PagePool::acquire_copy(const Page& src, bool* was_hit) {
  PageRef page = take_page(src.size(), false, was_hit);
  std::memcpy(page->mutable_data(), src.data(), src.size());
  return page;
}

void* PagePool::allocate_node(std::size_t bytes) {
  MW_CHECK(bytes < kNodeKey);
  bool hit = false;
  return take(kNodeKey | static_cast<std::uint32_t>(bytes), bytes, false,
              &hit);
}

void PagePool::free_node(void* p, std::size_t bytes) {
  give_back(p, kNodeKey | static_cast<std::uint32_t>(bytes));
}

std::size_t PagePool::frames_held() const {
  std::size_t n = 0;
  for (std::size_t h = 0; h < shard_count(); ++h) n += shard_frames_held(h);
  return n;
}

std::size_t PagePool::bytes_held() const {
  std::size_t n = 0;
  for (std::size_t c = 0; c < kClasses; ++c) {
    const std::uint32_t key = class_key_[c].load(std::memory_order_relaxed);
    if (key == 0 || (key & kNodeKey) != 0) continue;
    std::int64_t blocks = 0;
    for (std::size_t h = 0; h < shard_count(); ++h)
      blocks += heaps_[h].bins[c].held();
    n += static_cast<std::size_t>(std::max<std::int64_t>(0, blocks)) *
         (key - sizeof(Page));
  }
  return n;
}

std::size_t PagePool::shard_frames_held(std::size_t shard) const {
  MW_CHECK(shard < shard_count());
  std::int64_t n = 0;
  for (std::size_t c = 0; c < kClasses; ++c) {
    const std::uint32_t key = class_key_[c].load(std::memory_order_relaxed);
    if (key != 0 && (key & kNodeKey) == 0) n += heaps_[shard].bins[c].held();
  }
  return static_cast<std::size_t>(std::max<std::int64_t>(0, n));
}

void PagePool::set_capacity_per_class(std::size_t n) {
  cap_per_class_.store(n, std::memory_order_relaxed);
}

std::size_t PagePool::capacity_per_class() const {
  return cap_per_class_.load(std::memory_order_relaxed);
}

std::size_t PagePool::clear() {
  std::lock_guard<std::mutex> lock(shared_mu_);
  const std::uint32_t held = PageShard::claimed();
  std::size_t frames = 0;
  for (std::size_t c = 0; c < kClasses; ++c) {
    std::size_t n = heaps_[0].bins[c].release();
    for (std::size_t s = 0; s < PageShard::kSlots; ++s)
      if ((held >> s & 1) == 0) n += heaps_[1 + s].bins[c].free_stack();
    if ((class_key_[c].load(std::memory_order_relaxed) & kNodeKey) == 0)
      frames += n;
  }
  return frames;
}

PagePool::PoolStats PagePool::sum(std::size_t shard, bool nodes) const {
  PoolStats s;
  for (std::size_t c = 0; c < kClasses; ++c) {
    const std::uint32_t key = class_key_[c].load(std::memory_order_relaxed);
    if (key == 0 || ((key & kNodeKey) != 0) != nodes) continue;
    const Bin& b = heaps_[shard].bins[c];
    s.hits += b.hits.load(std::memory_order_relaxed);
    s.misses += b.misses.load(std::memory_order_relaxed);
    s.recycled += b.recycled.load(std::memory_order_relaxed);
    s.dropped += b.dropped.load(std::memory_order_relaxed);
    s.refills += b.refills.load(std::memory_order_relaxed);
    s.spills += b.spills.load(std::memory_order_relaxed);
  }
  return s;
}

PagePool::PoolStats PagePool::stats() const {
  PoolStats merged;
  for (std::size_t h = 0; h < shard_count(); ++h) merged.merge(sum(h, false));
  return merged;
}

PagePool::PoolStats PagePool::node_stats() const {
  PoolStats merged;
  for (std::size_t h = 0; h < shard_count(); ++h) merged.merge(sum(h, true));
  return merged;
}

PagePool::PoolStats PagePool::shard_stats(std::size_t shard) const {
  MW_CHECK(shard < shard_count());
  return sum(shard, false);
}

void PagePool::fold_into(trace::SpecProfile& profile) const {
  for (std::size_t h = 0; h < shard_count(); ++h) {
    const PoolStats s = sum(h, false);
    trace::PoolShardCounters c;
    c.shard = h;
    c.hits = s.hits;
    c.misses = s.misses;
    c.recycled = s.recycled;
    c.dropped = s.dropped;
    c.refills = s.refills;
    c.spills = s.spills;
    c.frames_held = shard_frames_held(h);
    if (h == 0 || s.hits + s.misses + s.recycled + s.dropped > 0 ||
        c.frames_held > 0)
      profile.pool_shards.push_back(c);
  }
}

}  // namespace mw
