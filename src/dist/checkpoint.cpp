#include "dist/checkpoint.hpp"

#include <cstdint>
#include <vector>

namespace mw {

namespace {

constexpr std::uint64_t kImageMagic = 0x4d57434b'50543032ull;  // "MWCKPT02"
constexpr std::uint64_t kKindFull = 0;
constexpr std::uint64_t kKindDelta = 1;
/// Bytes before the checksummed region: magic + the checksum field itself.
constexpr std::size_t kChecksumOffset = 8;
constexpr std::size_t kPayloadOffset = 16;

std::uint64_t fnv1a(std::span<const std::uint8_t> data) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t payload_checksum(const Bytes& blob) {
  return fnv1a(std::span<const std::uint8_t>(blob.data() + kPayloadOffset,
                                             blob.size() - kPayloadOffset));
}

void put_u64_at(Bytes& blob, std::size_t off, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    blob[off + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
}

void put_header_tail(ByteWriter& w, const AddressSpace& space,
                     const Registers& regs) {
  w.put_u64(regs.pc);
  w.put_u64(regs.sp);
  for (std::uint64_t g : regs.gp) w.put_u64(g);
  // Segment directory: naming state is part of the process image too.
  w.put_u64(space.segments().size());
  for (const Segment& s : space.segments()) {
    w.put_string(s.name);
    w.put_u64(s.base);
    w.put_u64(s.size);
  }
  w.put_u64(space.segment_watermark());
}

void put_page(ByteWriter& w, const AddressSpace& space, std::size_t i) {
  const PageTable& table = space.table();
  w.put_u64(i);
  const Page* p = table.peek(i);
  if (p) {
    w.put_bytes(std::span<const std::uint8_t>(p->data(), p->size()));
  } else {
    // A slot that diverged back to absent serializes as an explicit zero
    // page: restoring it must overwrite whatever the base image held.
    const std::vector<std::uint8_t> zeros(table.page_size(), 0);
    w.put_bytes(std::span<const std::uint8_t>(zeros.data(), zeros.size()));
  }
}

CheckpointImage seal(ByteWriter&& w, const CheckpointImage& meta) {
  CheckpointImage img = meta;
  img.blob = w.take();
  img.checksum = payload_checksum(img.blob);
  put_u64_at(img.blob, kChecksumOffset, img.checksum);
  return img;
}

/// Smallest encodings: a segment is a u32 name length plus base and size; a
/// page record is its index plus page_size bytes.
constexpr std::uint64_t kMinSegmentRecord = 4 + 8 + 8;
constexpr std::uint64_t kPageIndexBytes = 8;

/// Whether `count` records of at least `record` (> 0) bytes each can still
/// be in what `r` has left. A decoded count sizes nothing before this holds.
bool fits(const ByteReader& r, std::uint64_t count, std::uint64_t record) {
  return count <= r.remaining() / record;
}

/// Everything parsed out of one image's header (pages not yet consumed).
struct ParsedHeader {
  std::uint64_t kind = 0;
  std::uint64_t page_size = 0;
  std::uint64_t num_pages = 0;
  std::uint64_t base_checksum = 0;
  std::uint64_t checksum = 0;
  Registers regs;
  std::vector<Segment> segments;
  std::uint64_t watermark = 0;
};

bool read_header(ByteReader& r, const CheckpointImage& image,
                 ParsedHeader& h) {
  if (image.blob.size() < kPayloadOffset) return false;
  if (r.get_u64() != kImageMagic) return false;
  h.checksum = r.get_u64();
  if (h.checksum != payload_checksum(image.blob)) return false;
  h.kind = r.get_u64();
  if (h.kind != kKindFull && h.kind != kKindDelta) return false;
  h.page_size = r.get_u64();
  h.num_pages = r.get_u64();
  h.base_checksum = r.get_u64();
  if (!r.ok() || h.page_size == 0 || h.num_pages == 0) return false;
  if (h.num_pages > UINT64_MAX / h.page_size) return false;  // overflows

  h.regs.pc = r.get_u64();
  h.regs.sp = r.get_u64();
  for (auto& g : h.regs.gp) g = r.get_u64();
  h.regs.ret = Registers::kRestored;

  const std::uint64_t space_bytes = h.page_size * h.num_pages;
  const std::uint64_t nsegs = r.get_u64();
  if (!r.ok() || nsegs > h.num_pages || !fits(r, nsegs, kMinSegmentRecord))
    return false;
  h.segments.reserve(nsegs);
  for (std::uint64_t k = 0; k < nsegs; ++k) {
    Segment s;
    s.name = r.get_string();
    s.base = r.get_u64();
    s.size = r.get_u64();
    if (!r.ok() || s.base > space_bytes || s.size > space_bytes - s.base)
      return false;
    h.segments.push_back(std::move(s));
  }
  h.watermark = r.get_u64();
  return r.ok() && h.watermark <= space_bytes;
}

/// Reads the page-record count that follows a header: at most one record
/// per page, and no more records than the bytes left can hold.
bool read_page_count(ByteReader& r, const ParsedHeader& h,
                     std::uint64_t& count) {
  count = r.get_u64();
  if (!r.ok() || count > h.num_pages) return false;
  // page_size + kPageIndexBytes cannot overflow once page_size fits.
  return count == 0 || (h.page_size <= r.remaining() &&
                        fits(r, count, kPageIndexBytes + h.page_size));
}

/// Applies the page records onto `space`, enforcing strictly ascending
/// in-bounds indices — duplicate or out-of-order records are forgeries
/// (take_checkpoint never emits them), not a last-write-wins ambiguity.
bool apply_pages(ByteReader& r, AddressSpace& space,
                 const ParsedHeader& h) {
  std::uint64_t count = 0;
  if (!read_page_count(r, h, count)) return false;
  bool first = true;
  std::uint64_t prev = 0;
  for (std::uint64_t k = 0; k < count; ++k) {
    const std::uint64_t idx = r.get_u64();
    const Bytes data = r.get_blob(h.page_size);
    if (!r.ok() || idx >= h.num_pages) return false;
    if (!first && idx <= prev) return false;  // duplicate or out of order
    first = false;
    prev = idx;
    space.write(idx * h.page_size, data);
  }
  return r.ok() && r.at_end();
}

}  // namespace

CheckpointImage take_checkpoint(const AddressSpace& space,
                                const Registers& regs) {
  const PageTable& table = space.table();
  ByteWriter w;
  w.put_u64(kImageMagic);
  w.put_u64(0);  // checksum, sealed below
  w.put_u64(kKindFull);
  w.put_u64(table.page_size());
  w.put_u64(table.num_pages());
  w.put_u64(0);  // base_checksum: full images stand alone
  put_header_tail(w, space, regs);

  // Data segments: resident pages only, in ascending order.
  std::uint64_t resident = 0;
  for (std::size_t i = 0; i < table.num_pages(); ++i)
    if (table.peek(i)) ++resident;
  w.put_u64(resident);
  for (std::size_t i = 0; i < table.num_pages(); ++i)
    if (table.peek(i)) put_page(w, space, i);

  CheckpointImage meta;
  meta.resident_pages = resident;
  meta.page_size = table.page_size();
  meta.total_pages = table.num_pages();
  return seal(std::move(w), meta);
}

CheckpointImage take_delta_checkpoint(const AddressSpace& space,
                                      const Registers& regs,
                                      const AddressSpace& base_space,
                                      const CheckpointImage& base) {
  const PageTable& table = space.table();
  ByteWriter w;
  w.put_u64(kImageMagic);
  w.put_u64(0);  // checksum, sealed below
  w.put_u64(kKindDelta);
  w.put_u64(table.page_size());
  w.put_u64(table.num_pages());
  w.put_u64(base.checksum);
  put_header_tail(w, space, regs);

  // Only the divergence from the base snapshot ships: the PageMap diff
  // prunes shared subtrees, so this is O(write set), not O(resident set).
  const std::vector<std::size_t> changed =
      table.diff(base_space.table());  // ascending by construction
  w.put_u64(changed.size());
  for (std::size_t i : changed) put_page(w, space, i);

  CheckpointImage meta;
  meta.resident_pages = changed.size();
  meta.page_size = table.page_size();
  meta.total_pages = table.num_pages();
  meta.delta = true;
  meta.base_checksum = base.checksum;
  return seal(std::move(w), meta);
}

RestoreResult restore_checkpoint(const CheckpointImage& image) {
  const CheckpointImage* one[] = {&image};
  return restore_chain(std::span<const CheckpointImage* const>(one));
}

RestoreResult restore_chain(std::span<const CheckpointImage* const> chain) {
  RestoreResult out{AddressSpace(1, 1), Registers{}, false};
  if (chain.empty()) return out;

  // Validate headers and the chain linkage before touching any pages.
  std::vector<ParsedHeader> headers(chain.size());
  std::vector<ByteReader> readers;
  readers.reserve(chain.size());
  for (std::size_t k = 0; k < chain.size(); ++k) {
    readers.emplace_back(chain[k]->blob);
    if (!read_header(readers[k], *chain[k], headers[k])) return out;
    const ParsedHeader& h = headers[k];
    if (k == 0) {
      if (h.kind != kKindFull) return out;  // a delta cannot stand alone
    } else {
      if (h.kind != kKindDelta) return out;
      if (h.base_checksum != headers[k - 1].checksum) return out;
      if (h.page_size != headers[0].page_size ||
          h.num_pages != headers[0].num_pages)
        return out;
    }
  }

  AddressSpace space(headers[0].page_size, headers[0].num_pages);
  for (std::size_t k = 0; k < chain.size(); ++k)
    if (!apply_pages(readers[k], space, headers[k])) return out;

  const ParsedHeader& newest = headers.back();
  space.set_segments(newest.segments, newest.watermark);
  out.space = std::move(space);
  out.regs = newest.regs;
  out.ok = true;
  return out;
}

RestoreResult restore_chain(const std::vector<CheckpointImage>& chain) {
  std::vector<const CheckpointImage*> ptrs;
  ptrs.reserve(chain.size());
  for (const CheckpointImage& img : chain) ptrs.push_back(&img);
  return restore_chain(std::span<const CheckpointImage* const>(ptrs));
}

bool parse_checkpoint_blob(Bytes blob, CheckpointImage& out) {
  CheckpointImage img;
  img.blob = std::move(blob);
  ByteReader r(img.blob);
  ParsedHeader h;
  if (!read_header(r, img, h)) return false;
  // Page records are not replayed here (restore does that); only the
  // record *count* is needed to rebuild resident_pages.
  std::uint64_t count = 0;
  if (!read_page_count(r, h, count)) return false;
  img.resident_pages = count;
  img.page_size = h.page_size;
  img.total_pages = h.num_pages;
  img.delta = h.kind == kKindDelta;
  img.checksum = h.checksum;
  img.base_checksum = h.base_checksum;
  out = std::move(img);
  return true;
}

void reseal_checkpoint(CheckpointImage& image) {
  if (image.blob.size() < kPayloadOffset) return;
  image.checksum = payload_checksum(image.blob);
  put_u64_at(image.blob, kChecksumOffset, image.checksum);
}

}  // namespace mw
