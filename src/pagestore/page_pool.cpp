#include "pagestore/page_pool.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

#include "pagestore/shard.hpp"
#include "trace/spec_profile.hpp"
#include "util/check.hpp"
#include "util/threading.hpp"

namespace mw {

namespace {

// Frames pulled in one steal refill: one to satisfy the miss, the rest
// deposited in the home shard so a busy worker stops missing after the
// first steal instead of paying a sibling lock per allocation.
constexpr std::size_t kRefillBatch = 8;

}  // namespace

PagePool::PagePool(std::size_t worker_shards) {
  if (worker_shards == 0) worker_shards = hw_threads();
  shards_.reserve(worker_shards + 1);
  for (std::size_t s = 0; s < worker_shards + 1; ++s)
    shards_.push_back(std::make_unique<Shard>());
}

PagePool::~PagePool() { clear(); }

PagePool& PagePool::global() {
  static PagePool pool;
  return pool;
}

Page* Page::alloc_block(std::size_t size, bool zeroed) {
  MW_CHECK(size <= UINT32_MAX);
  void* raw = zeroed ? std::calloc(1, sizeof(Page) + size)
                     : std::malloc(sizeof(Page) + size);
  MW_CHECK(raw != nullptr);
  return new (raw) Page(size);
}

void Page::die() {
  PageLedger::add(-1);  // before the block is cached or freed
  if (pool_ != nullptr) {
    pool_->recycle(this);
  } else {
    free_block(this);
  }
}

std::size_t PagePool::home_shard() const {
  const std::size_t id = PageShard::current();
  if (id == PageShard::kUnbound || shards_.size() == 1) return 0;
  return 1 + id % (shards_.size() - 1);
}

PageRef PagePool::take(std::size_t size, bool zeroed, bool* was_hit) {
  const std::size_t home = home_shard();
  Page* block = nullptr;
  {
    Shard& h = *shards_[home];
    std::lock_guard<std::mutex> lock(h.mu);
    auto it = h.free.find(size);
    if (it != h.free.end() && !it->second.empty()) {
      block = it->second.back();
      it->second.pop_back();
      --h.frames;
      h.bytes -= size;
      ++h.stats.hits;
    }
  }

  // Steal refill: take a small batch from the first sibling that has the
  // class, keep one frame, park the rest at home. At most one shard lock
  // is held at a time (home was released above), so shards never deadlock.
  if (block == nullptr) {
    std::vector<Page*> batch;
    for (std::size_t v = 0; v < shards_.size() && batch.empty(); ++v) {
      if (v == home) continue;
      Shard& victim = *shards_[v];
      std::lock_guard<std::mutex> lock(victim.mu);
      auto it = victim.free.find(size);
      if (it == victim.free.end() || it->second.empty()) continue;
      const std::size_t n = std::min(kRefillBatch, it->second.size());
      batch.assign(it->second.end() - static_cast<std::ptrdiff_t>(n),
                   it->second.end());
      it->second.resize(it->second.size() - n);
      victim.frames -= n;
      victim.bytes -= n * size;
    }
    Shard& h = *shards_[home];
    std::lock_guard<std::mutex> lock(h.mu);
    if (batch.empty()) {
      ++h.stats.misses;
    } else {
      block = batch.back();
      batch.pop_back();
      ++h.stats.hits;
      h.stats.steal_refills += batch.size() + 1;
      if (!batch.empty()) {
        auto& cls = h.free[size];
        h.frames += batch.size();
        h.bytes += batch.size() * size;
        cls.insert(cls.end(), batch.begin(), batch.end());
      }
    }
  }

  if (was_hit) *was_hit = block != nullptr;
  if (block == nullptr) {
    block = Page::alloc_block(size, zeroed);  // a fresh calloc is zero
  } else if (zeroed) {
    std::memset(block->mutable_data(), 0, size);
  }
  return PageRef::adopt(Page::revive(block, this));
}

PageRef PagePool::acquire_uninit(std::size_t size, bool* was_hit) {
  return take(size, false, was_hit);
}

PageRef PagePool::acquire_zeroed(std::size_t size, bool* was_hit) {
  return take(size, true, was_hit);
}

PageRef PagePool::acquire_copy(const Page& src, bool* was_hit) {
  PageRef page = take(src.size(), false, was_hit);
  std::memcpy(page->mutable_data(), src.data(), src.size());
  return page;
}

void PagePool::recycle(Page* block) {
  const std::size_t size = block->size();
  const std::size_t cap = cap_per_class_.load(std::memory_order_relaxed);
  const std::size_t home = home_shard();
  {
    Shard& h = *shards_[home];
    std::lock_guard<std::mutex> lock(h.mu);
    auto& cls = h.free[size];
    if (cls.size() < cap) {
      cls.push_back(block);
      ++h.frames;
      h.bytes += size;
      ++h.stats.recycled;
      return;
    }
  }
  // Overflow: the home class is full — park the frame in the first sibling
  // with room so a shard running hot does not bleed warm frames back to
  // the system allocator while its neighbours sit under capacity.
  for (std::size_t v = 0; v < shards_.size(); ++v) {
    if (v == home) continue;
    Shard& s = *shards_[v];
    std::lock_guard<std::mutex> lock(s.mu);
    auto& cls = s.free[size];
    if (cls.size() >= cap) continue;
    cls.push_back(block);
    ++s.frames;
    s.bytes += size;
    ++s.stats.recycled;
    ++s.stats.overflows;
    return;
  }
  Page::free_block(block);
  Shard& h = *shards_[home];
  std::lock_guard<std::mutex> lock(h.mu);
  ++h.stats.dropped;
}

std::size_t PagePool::frames_held() const {
  std::size_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    n += s->frames;
  }
  return n;
}

std::size_t PagePool::bytes_held() const {
  std::size_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    n += s->bytes;
  }
  return n;
}

std::size_t PagePool::shard_frames_held(std::size_t shard) const {
  const Shard& s = *shards_.at(shard);
  std::lock_guard<std::mutex> lock(s.mu);
  return s.frames;
}

void PagePool::set_capacity_per_class(std::size_t n) {
  cap_per_class_.store(n, std::memory_order_relaxed);
  for (const auto& sp : shards_) {
    Shard& s = *sp;
    std::lock_guard<std::mutex> lock(s.mu);
    for (auto& [size, frames] : s.free) {
      while (frames.size() > n) {
        Page::free_block(frames.back());
        frames.pop_back();
        --s.frames;
        s.bytes -= size;
      }
    }
  }
}

std::size_t PagePool::capacity_per_class() const {
  return cap_per_class_.load(std::memory_order_relaxed);
}

std::size_t PagePool::clear() {
  std::size_t n = 0;
  for (const auto& sp : shards_) {
    Shard& s = *sp;
    std::lock_guard<std::mutex> lock(s.mu);
    n += s.frames;
    for (auto& [size, frames] : s.free)
      for (Page* block : frames) Page::free_block(block);
    s.free.clear();
    s.frames = 0;
    s.bytes = 0;
  }
  return n;
}

PagePool::PoolStats PagePool::stats() const {
  PoolStats merged;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    merged.merge(s->stats);
  }
  return merged;
}

PagePool::PoolStats PagePool::shard_stats(std::size_t shard) const {
  const Shard& s = *shards_.at(shard);
  std::lock_guard<std::mutex> lock(s.mu);
  return s.stats;
}

void PagePool::reset_stats() {
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    s->stats = PoolStats{};
  }
}

void PagePool::fold_into(trace::SpecProfile& profile) const {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = *shards_[i];
    trace::PoolShardCounters c;
    c.shard = i;
    {
      std::lock_guard<std::mutex> lock(s.mu);
      c.hits = s.stats.hits;
      c.misses = s.stats.misses;
      c.recycled = s.stats.recycled;
      c.dropped = s.stats.dropped;
      c.steal_refills = s.stats.steal_refills;
      c.overflows = s.stats.overflows;
      c.frames_held = s.frames;
    }
    profile.pool_shards.push_back(c);
  }
}

}  // namespace mw
