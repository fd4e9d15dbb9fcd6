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

}  // namespace mw
