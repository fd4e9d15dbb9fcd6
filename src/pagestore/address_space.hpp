// A world's sink state: a paged address space with typed accessors and
// named segments. "Files are named sets of pages" (§2.1) — segments give
// worlds MULTICS-style single-level-store naming over the page table.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "pagestore/page_table.hpp"
#include "util/check.hpp"

namespace mw {

struct Segment {
  std::string name;
  std::uint64_t base = 0;  // byte offset, page aligned
  std::uint64_t size = 0;  // bytes reserved (page-size multiple)
};

class AddressSpace {
 public:
  AddressSpace(std::size_t page_size, std::size_t num_pages)
      : table_(page_size, num_pages) {}

  std::size_t page_size() const { return table_.page_size(); }
  std::size_t size_bytes() const { return table_.size_bytes(); }

  void read(std::uint64_t off, std::span<std::uint8_t> dst) const {
    table_.read(off, dst);
  }
  void write(std::uint64_t off, std::span<const std::uint8_t> src) {
    table_.write(off, src);
  }

  template <typename T>
  T load(std::uint64_t off) const {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    table_.read(off, std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(&v),
                                             sizeof v));
    return v;
  }

  template <typename T>
  void store(std::uint64_t off, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    table_.write(off, std::span<const std::uint8_t>(
                          reinterpret_cast<const std::uint8_t*>(&v), sizeof v));
  }

  /// Reserves a page-aligned named segment; aborts if the space is full.
  /// Segment names must be unique within the address space. Returned by
  /// value: a reference into the directory would dangle as soon as the
  /// next allocation grows it.
  Segment alloc_segment(const std::string& name, std::uint64_t bytes);

  /// Looks a segment up by name.
  std::optional<Segment> find_segment(const std::string& name) const;

  /// The whole segment directory, in allocation order.
  const std::vector<Segment>& segments() const { return segments_; }

  /// First byte not yet claimed by a segment (the allocation watermark).
  std::uint64_t segment_watermark() const { return next_free_; }

  /// Replaces the segment directory wholesale — the checkpoint bootstrap
  /// path, which must restore naming state alongside the pages. `watermark`
  /// must not exceed the space size; entries are taken as-is.
  void set_segments(std::vector<Segment> segs, std::uint64_t watermark);

  /// COW fork: the child inherits pages *and* the segment directory.
  /// O(1) in address-space size (persistent page-map root share).
  AddressSpace fork() const;

  /// fork() for a child that lives only inside this space's alternative
  /// block: its page table borrows (PageTable::fork_scoped).
  AddressSpace fork_scoped() const;

  /// Commit a child's state into this space (page-map root replacement,
  /// O(1) in address-space size).
  void adopt(AddressSpace&& child);

  const PageTable& table() const { return table_; }
  PageTable& table() { return table_; }

 private:
  AddressSpace(PageTable table, std::vector<Segment> segments,
               std::uint64_t next_free)
      : table_(std::move(table)),
        segments_(std::move(segments)),
        next_free_(next_free) {}

  PageTable table_;
  std::vector<Segment> segments_;
  std::uint64_t next_free_ = 0;
};

}  // namespace mw
