#include "pagestore/address_space.hpp"

namespace mw {

Segment AddressSpace::alloc_segment(const std::string& name,
                                    std::uint64_t bytes) {
  MW_CHECK(!find_segment(name).has_value());
  const std::uint64_t ps = page_size();
  const std::uint64_t rounded = (bytes + ps - 1) / ps * ps;
  MW_CHECK(next_free_ + rounded <= size_bytes());
  segments_.push_back(Segment{name, next_free_, rounded});
  next_free_ += rounded;
  return segments_.back();
}

std::optional<Segment> AddressSpace::find_segment(
    const std::string& name) const {
  for (const auto& s : segments_)
    if (s.name == name) return s;
  return std::nullopt;
}

void AddressSpace::set_segments(std::vector<Segment> segs,
                                std::uint64_t watermark) {
  MW_CHECK(watermark <= size_bytes());
  segments_ = std::move(segs);
  next_free_ = watermark;
}

AddressSpace AddressSpace::fork() const {
  // O(1) in address-space size: the page table fork is a radix-tree root
  // share; only the (small) segment directory is copied eagerly.
  return AddressSpace(table_.fork(), segments_, next_free_);
}

AddressSpace AddressSpace::fork_scoped() const {
  return AddressSpace(table_.fork_scoped(), segments_, next_free_);
}

void AddressSpace::adopt(AddressSpace&& child) {
  table_.adopt(std::move(child.table_));
  segments_ = std::move(child.segments_);
  next_free_ = child.next_free_;
}

std::pair<std::size_t, std::size_t> AddressSpace::page_range(
    const Segment& seg) const {
  const std::uint64_t ps = page_size();
  MW_CHECK(seg.base % ps == 0 && seg.size % ps == 0);
  MW_CHECK(seg.base + seg.size <= size_bytes());
  return {static_cast<std::size_t>(seg.base / ps),
          static_cast<std::size_t>((seg.base + seg.size) / ps)};
}

std::size_t AddressSpace::adopt_segment(AddressSpace&& child,
                                        const Segment& seg) {
  const auto [lo, hi] = page_range(seg);
  return table_.adopt_segment(std::move(child.table_), lo, hi);
}

PageTable::AdoptBatchStats AddressSpace::adopt_parallel(
    const std::vector<SegmentCommit>& commits) {
  std::vector<PageTable::SegmentAdoptOp> ops;
  ops.reserve(commits.size());
  for (const SegmentCommit& c : commits) {
    MW_CHECK(c.child != nullptr);
    const auto [lo, hi] = page_range(c.segment);
    ops.push_back({&c.child->table_, lo, hi});
  }
  return table_.adopt_segments(std::move(ops));
}

}  // namespace mw
