#include "dist/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <utility>

namespace mw {
namespace {

AddressSpace make_space() {
  AddressSpace as(64, 16);
  as.store<int>(0, 42);
  as.store<double>(64 * 3, 2.5);
  as.store<int>(64 * 7 + 4, 7);
  return as;
}

TEST(Checkpoint, RoundTripRestoresMemory) {
  AddressSpace as = make_space();
  Registers regs;
  regs.pc = 0x1000;
  regs.sp = 0x2000;
  regs.gp[3] = 33;
  CheckpointImage img = take_checkpoint(as, regs);
  auto r = restore_checkpoint(img);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.space.load<int>(0), 42);
  EXPECT_DOUBLE_EQ(r.space.load<double>(64 * 3), 2.5);
  EXPECT_EQ(r.space.load<int>(64 * 7 + 4), 7);
}

TEST(Checkpoint, ReturnValueDistinguishesRestore) {
  // "A return value is used to distinguish between return of control in
  // the checkpoint and in the calling process."
  AddressSpace as = make_space();
  Registers caller;
  EXPECT_EQ(caller.ret, Registers::kInCaller);
  auto r = restore_checkpoint(take_checkpoint(as, caller));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.regs.ret, Registers::kRestored);
  EXPECT_EQ(r.regs.pc, caller.pc);
  EXPECT_EQ(r.regs.gp[3], caller.gp[3]);
}

TEST(Checkpoint, SizeTracksResidentSetNotAddressSpace) {
  AddressSpace small(64, 1024);
  small.store<int>(0, 1);  // one resident page of a 64 KiB space
  CheckpointImage img = take_checkpoint(small, Registers{});
  EXPECT_EQ(img.resident_pages, 1u);
  EXPECT_LT(img.size_bytes(), 64u * 4);  // header + regs + one page

  AddressSpace big(64, 1024);
  for (int p = 0; p < 100; ++p) big.store<int>(64 * p, p);
  CheckpointImage img2 = take_checkpoint(big, Registers{});
  EXPECT_EQ(img2.resident_pages, 100u);
  EXPECT_GT(img2.size_bytes(), 100u * 64);
}

TEST(Checkpoint, EmptySpaceRoundTrips) {
  AddressSpace as(64, 8);
  auto r = restore_checkpoint(take_checkpoint(as, Registers{}));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.space.load<int>(0), 0);
}

TEST(Checkpoint, CorruptMagicRejected) {
  AddressSpace as = make_space();
  CheckpointImage img = take_checkpoint(as, Registers{});
  img.blob[0] ^= 0xFF;
  EXPECT_FALSE(restore_checkpoint(img).ok);
}

TEST(Checkpoint, TruncatedImageRejected) {
  AddressSpace as = make_space();
  CheckpointImage img = take_checkpoint(as, Registers{});
  img.blob.resize(img.blob.size() / 2);
  EXPECT_FALSE(restore_checkpoint(img).ok);
}

TEST(Checkpoint, TrailingGarbageRejected) {
  AddressSpace as = make_space();
  CheckpointImage img = take_checkpoint(as, Registers{});
  img.blob.push_back(0);
  EXPECT_FALSE(restore_checkpoint(img).ok);
}

TEST(Checkpoint, RestoredSpaceIsIndependent) {
  AddressSpace as = make_space();
  auto r = restore_checkpoint(take_checkpoint(as, Registers{}));
  ASSERT_TRUE(r.ok);
  r.space.store<int>(0, 99);
  EXPECT_EQ(as.load<int>(0), 42);
}

// --- Forged geometry and counts: the decoder sizes nothing from a field it
// has not checked against the bytes that follow. Each image is resealed, so
// only the field under test is wrong; each used to throw std::bad_alloc. ---

// Field offsets in an image with no segments: magic, checksum and kind come
// before page_size; 6 header u64s and 10 register u64s before the segment
// count.
constexpr std::size_t kPageSizeOff = 3 * 8;
constexpr std::size_t kNumPagesOff = 4 * 8;
constexpr std::size_t kNsegsOff = (6 + 10) * 8;

void write_u64_at(Bytes& b, std::size_t off, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    b[off + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// make_space()'s image with each (offset, value) field written, resealed.
CheckpointImage forged(std::initializer_list<std::pair<std::size_t, std::uint64_t>> fields) {
  CheckpointImage img = take_checkpoint(make_space(), Registers{});
  for (const auto& [off, v] : fields) write_u64_at(img.blob, off, v);
  reseal_checkpoint(img);
  return img;
}

void expect_rejected(const CheckpointImage& img) {
  EXPECT_FALSE(restore_checkpoint(img).ok);
  CheckpointImage parsed;
  EXPECT_FALSE(parse_checkpoint_blob(img.blob, parsed));
}

TEST(Checkpoint, ForgedSegmentCountRejected) {
  // 2^39 segments would reserve terabytes; num_pages is raised too, since a
  // count above it is rejected on its own.
  expect_rejected(forged({{kNumPagesOff, 1ull << 40}, {kNsegsOff, 1ull << 39}}));
}

TEST(Checkpoint, ForgedPageSizeRejected) {
  // Three resident 2^40-byte pages cannot be in a blob of a few hundred
  // bytes, so the page records are refused before any buffer is sized.
  expect_rejected(forged({{kPageSizeOff, 1ull << 40}}));
}

TEST(Checkpoint, OverflowingGeometryRejected) {
  // 2^40 * 2^30 wraps to 64 bytes; the wrapped size would pass the segment
  // and watermark checks.
  expect_rejected(forged({{kPageSizeOff, 1ull << 40}, {kNumPagesOff, 1ull << 30}}));
}

TEST(Checkpoint, HugeSparseGeometryRestoresWithoutHanging) {
  // 2^62 one-byte pages is a consistent geometry for an image with no
  // resident pages; restoring it used to spin forever sizing the page map.
  CheckpointImage img = take_checkpoint(AddressSpace(64, 8), Registers{});
  write_u64_at(img.blob, kPageSizeOff, 1);
  write_u64_at(img.blob, kNumPagesOff, 1ull << 62);
  reseal_checkpoint(img);
  const RestoreResult r = restore_checkpoint(img);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.space.table().num_pages(), 1ull << 62);
  EXPECT_EQ(r.space.load<std::uint8_t>((1ull << 62) - 1), 0u);
}

TEST(Checkpoint, ParsedBlobKeepsItsCounts) {
  const CheckpointImage img = take_checkpoint(make_space(), Registers{});
  CheckpointImage parsed;
  ASSERT_TRUE(parse_checkpoint_blob(img.blob, parsed));
  EXPECT_EQ(parsed.resident_pages, 3u);
  EXPECT_EQ(parsed.page_size, 64u);
  EXPECT_EQ(parsed.total_pages, 16u);
}

}  // namespace
}  // namespace mw
