#include "pagestore/page_table.hpp"

#include <algorithm>
#include <cstring>

#include "pagestore/page_pool.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace mw {

PageTable::PageTable(std::size_t page_size, std::size_t num_pages)
    : page_size_(page_size), map_(num_pages) {
  MW_CHECK(page_size > 0);
}

const Page* PageTable::peek(std::size_t i) const { return map_.peek(i); }

void PageTable::materialize_slot(PageRef& ref, std::size_t i, bool blind) {
  // Demand allocation, preferring a recycled frame.
  bool pool_hit = false;
  PagePool& pool = PagePool::global();
  ref = blind ? pool.acquire_uninit(page_size_, &pool_hit)
              : pool.acquire_zeroed(page_size_, &pool_hit);
  ++stats_.pages_allocated;
  map_.note_resident(i);
  ++(pool_hit ? stats_.pool_hits : stats_.pool_misses);
  MW_TRACE_EVENT(trace::EventKind::kPageAlloc, kNoPid, kNoPid, i);
}

void PageTable::cow_break_slot(const PageMap::Slot& slot, std::size_t i,
                               bool blind) {
  // COW break: the page is inherited or shared with a sibling world.
  // (slot_for_write path-copied any shared leaf first, so a page shared
  // through structural sharing is guaranteed to show use_count > 1 here,
  // or to be borrowed.) The paper's copy (§2.3) keeps the bytes the child
  // does not write; a blind write keeps none, so it still breaks sharing
  // but copies nothing.
  bool pool_hit = false;
  PagePool& pool = PagePool::global();
  slot.install(blind ? pool.acquire_uninit(page_size_, &pool_hit)
                     : pool.acquire_copy(**slot.page, &pool_hit));
  const std::size_t copied = blind ? 0 : page_size_;
  ++stats_.pages_copied;
  stats_.bytes_copied += copied;
  ++(pool_hit ? stats_.pool_hits : stats_.pool_misses);
  MW_TRACE_EVENT(trace::EventKind::kPageCopy, kNoPid, kNoPid, i, copied);
}

void PageTable::read(std::uint64_t off, std::span<std::uint8_t> dst) const {
  MW_CHECK(off + dst.size() <= size_bytes());
  auto* self = const_cast<PageTable*>(this);  // stats only
  ++self->stats_.page_reads;
  std::size_t done = 0;
  while (done < dst.size()) {
    const std::size_t page = (off + done) / page_size_;
    const std::size_t in_page = (off + done) % page_size_;
    const std::size_t n = std::min(dst.size() - done, page_size_ - in_page);
    if (const Page* p = map_.peek(page)) {
      std::memcpy(dst.data() + done, p->data() + in_page, n);
    } else {
      std::memset(dst.data() + done, 0, n);
    }
    done += n;
  }
}

void PageTable::write(std::uint64_t off, std::span<const std::uint8_t> src) {
  MW_CHECK(off + src.size() <= size_bytes());
  std::size_t done = 0;
  while (done < src.size()) {
    const std::size_t page = (off + done) / page_size_;
    const std::size_t in_page = (off + done) % page_size_;
    const std::size_t n = std::min(src.size() - done, page_size_ - in_page);
    std::memcpy(writable(page, n == page_size_) + in_page, src.data() + done,
                n);
    done += n;
  }
}

PageTable PageTable::fork() const {
  // Structural sharing: the child references the same radix-tree root, so
  // this is O(1) in address-space size (the paper's §2.3 curve goes flat).
  PageTable child(*this);
  child.stats_.reset();
  // Everything the child inherited predates its epoch: nothing is
  // "written since fork" until the child itself writes.
  child.epoch_ = child.gen_ = gen_;
  MW_TRACE_EVENT(trace::EventKind::kPageFork, kNoPid, kNoPid,
                 map_.resident());
  return child;
}

PageTable PageTable::fork_scoped() const {
  PageTable child = fork();
  child.map_.set_borrowing(true);
  return child;
}

void PageTable::adopt(PageTable&& child) {
  MW_CHECK(child.page_size_ == page_size_);
  MW_CHECK(child.num_pages() == num_pages());
  const bool borrowing = map_.borrowing();
  {
    // Atomic in effect: a single root swap. The old tree goes first, so a
    // leaf the child borrowed from is left held by the child alone.
    PageMap old = std::move(map_);
    map_ = std::move(child.map_);
  }
  map_.set_borrowing(borrowing);
  map_.settle();
  // The commit absorbs the child's accounting so τ(overhead) attribution
  // (setup + run-time copying + completion) survives the swap. merge() runs
  // exactly once per adopt; nested trees therefore count each level once.
  stats_.merge(child.stats_);
  // The child's tags may exceed our generation; advancing to the max keeps
  // every adopted tag ≤ epoch_, i.e. the write-fraction clock restarts.
  gen_ = std::max(gen_, child.gen_);
  epoch_ = gen_;
  MW_TRACE_EVENT(trace::EventKind::kPageAdopt, kNoPid, kNoPid,
                 map_.resident());
}

std::size_t PageTable::resident_pages() const { return map_.resident(); }

std::size_t PageTable::shared_pages_with(const PageTable& other) const {
  return map_.shared_with(other.map_);
}

std::vector<std::size_t> PageTable::diff(const PageTable& other) const {
  return map_.diff(other.map_);
}

void PageTable::collect_pages(std::unordered_set<const Page*>& out) const {
  map_.collect_pages(out);
}

double PageTable::write_fraction() const {
  const std::size_t resident = map_.resident();
  if (resident == 0) return 0.0;
  return static_cast<double>(map_.count_written_since(epoch_)) /
         static_cast<double>(resident);
}

}  // namespace mw
