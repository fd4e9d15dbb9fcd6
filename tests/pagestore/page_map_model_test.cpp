// Model-based property suite for the persistent radix PageMap underneath
// PageTable: randomized fork/write/adopt/diff/eliminate sequences run
// against a faithful replica of the pre-radix flat page table, asserting
// byte-for-byte content equivalence *and* exact stats equivalence — the
// radix tree must make the same allocate/COW-break decisions the flat slot
// vector made, page for page. Alternative blocks fork scoped (borrowing)
// children where the reference forks plain ones: borrowing must not change
// a single decision.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "pagestore/page_table.hpp"
#include "util/rng.hpp"

namespace mw {
namespace {

// The pre-radix PageTable: flat slot vector, per-slot touched bits, COW
// break on use_count > 1. One rule postdates it: a write covering a whole
// page (a blind write) still breaks sharing but copies no bytes.
class FlatRef {
 public:
  FlatRef(std::size_t page_size, std::size_t num_pages)
      : page_size_(page_size), slots_(num_pages), touched_(num_pages, false) {}

  std::uint8_t* write_page(std::size_t i, bool blind) {
    PageRef& slot = slots_[i];
    if (!slot) {
      slot = make_page(page_size_);
      ++stats_.pages_allocated;
    } else if (slot.use_count() > 1) {
      PageRef copy = make_page(page_size_);
      std::memcpy(copy->mutable_data(), slot->data(), page_size_);
      slot = std::move(copy);
      ++stats_.pages_copied;
      if (!blind) stats_.bytes_copied += page_size_;
    }
    touched_[i] = true;
    ++stats_.page_writes;
    return slot->mutable_data();
  }

  void write(std::uint64_t off, const std::vector<std::uint8_t>& src) {
    std::size_t done = 0;
    while (done < src.size()) {
      const std::size_t page = (off + done) / page_size_;
      const std::size_t in_page = (off + done) % page_size_;
      const std::size_t n =
          std::min(src.size() - done, page_size_ - in_page);
      std::memcpy(write_page(page, n == page_size_) + in_page,
                  src.data() + done, n);
      done += n;
    }
  }

  std::vector<std::uint8_t> read_all() const {
    std::vector<std::uint8_t> out(page_size_ * slots_.size(), 0);
    for (std::size_t i = 0; i < slots_.size(); ++i)
      if (slots_[i])
        std::memcpy(out.data() + i * page_size_, slots_[i]->data(),
                    page_size_);
    return out;
  }

  FlatRef fork() const {
    FlatRef child(page_size_, slots_.size());
    child.slots_ = slots_;
    return child;
  }

  void adopt(FlatRef&& child) {
    slots_ = std::move(child.slots_);
    stats_.merge(child.stats_);
    std::fill(touched_.begin(), touched_.end(), false);
  }

  std::size_t resident_pages() const {
    std::size_t n = 0;
    for (const auto& s : slots_)
      if (s) ++n;
    return n;
  }

  std::size_t shared_pages_with(const FlatRef& other) const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i)
      if (slots_[i] && slots_[i] == other.slots_[i]) ++n;
    return n;
  }

  std::vector<std::size_t> diff(const FlatRef& other) const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < slots_.size(); ++i)
      if (slots_[i] != other.slots_[i]) out.push_back(i);
    return out;
  }

  double write_fraction() const {
    const std::size_t resident = resident_pages();
    if (resident == 0) return 0.0;
    std::size_t written = 0;
    for (bool t : touched_)
      if (t) ++written;
    return static_cast<double>(written) / static_cast<double>(resident);
  }

  const CowStats& stats() const { return stats_; }

 private:
  std::size_t page_size_;
  std::vector<PageRef> slots_;
  std::vector<bool> touched_;
  CowStats stats_;  // pool fields stay zero in the reference
};

struct WorldPair {
  PageTable table;
  FlatRef ref;
};

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t len) {
  std::vector<std::uint8_t> data(len);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(256));
  return data;
}

void random_write(Rng& rng, WorldPair& w) {
  const std::size_t bytes = w.table.size_bytes();
  const std::size_t off = rng.next_below(bytes);
  const std::size_t len = 1 + rng.next_below(bytes - off);
  const std::vector<std::uint8_t> data = random_bytes(rng, len);
  w.table.write(off, data);
  w.ref.write(off, data);
}

// An alternative block as kPool runs it: 2-4 scoped children of `parent`
// write (and, below `depth`, run blocks of their own) while the parent is
// untouched; then one child is adopted and the rest are dropped, each
// before or after the adopt. The reference forks and adopts plainly.
void run_block(Rng& rng, WorldPair& parent, int depth) {
  std::vector<std::unique_ptr<WorldPair>> kids;
  const std::size_t n = 2 + rng.next_below(3);
  for (std::size_t k = 0; k < n; ++k)
    kids.push_back(std::make_unique<WorldPair>(
        WorldPair{parent.table.fork_scoped(), parent.ref.fork()}));
  const std::size_t steps = 1 + rng.next_below(8);
  for (std::size_t s = 0; s < steps; ++s) {
    WorldPair& kid = *kids[rng.next_below(n)];
    if (depth > 0 && rng.next_below(4) == 0) {
      run_block(rng, kid, depth - 1);
    } else {
      random_write(rng, kid);
    }
  }
  const std::size_t winner = rng.next_below(n);
  std::vector<std::size_t> late;  // losers that outlive the adopt
  for (std::size_t k = 0; k < n; ++k) {
    if (k == winner) continue;
    if (rng.next_below(2) == 0) {
      kids[k].reset();
    } else {
      late.push_back(k);
    }
  }
  parent.table.adopt(std::move(kids[winner]->table));
  parent.ref.adopt(std::move(kids[winner]->ref));
  for (std::size_t k : late) kids[k].reset();
}

void expect_equivalent(const WorldPair& w, std::uint64_t seed, int step) {
  // Contents.
  std::vector<std::uint8_t> got(w.table.size_bytes());
  w.table.read(0, got);
  ASSERT_EQ(got, w.ref.read_all()) << "seed=" << seed << " step=" << step;
  // Derived measurements.
  EXPECT_EQ(w.table.resident_pages(), w.ref.resident_pages())
      << "seed=" << seed << " step=" << step;
  EXPECT_DOUBLE_EQ(w.table.write_fraction(), w.ref.write_fraction())
      << "seed=" << seed << " step=" << step;
  // Stats: the radix table must make the identical allocation and COW-break
  // decisions (page_reads differ: read_all above went through the table).
  const CowStats& a = w.table.stats();
  const CowStats& b = w.ref.stats();
  EXPECT_EQ(a.pages_allocated, b.pages_allocated) << "seed=" << seed;
  EXPECT_EQ(a.pages_copied, b.pages_copied) << "seed=" << seed;
  EXPECT_EQ(a.bytes_copied, b.bytes_copied) << "seed=" << seed;
  EXPECT_EQ(a.page_writes, b.page_writes) << "seed=" << seed;
  // Every frame came from the pool path: hits + misses == frames acquired.
  EXPECT_EQ(a.pool_hits + a.pool_misses, a.pages_allocated + a.pages_copied)
      << "seed=" << seed;
}

class PageMapModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PageMapModelTest, RandomOpsMatchFlatReference) {
  const std::uint64_t seed = GetParam();
  const std::int64_t live_before = Page::live_instances();
  Rng rng(seed);
  const std::size_t page_size = 1 + rng.next_below(96);
  // Bias toward sizes that exercise multi-level trees (fanout 64): up to
  // 2^13 pages spans depth 1..3.
  const std::size_t num_pages = 2 + rng.next_below(1u << (3 + rng.next_below(11)));

  std::vector<std::unique_ptr<WorldPair>> worlds;
  worlds.push_back(std::make_unique<WorldPair>(
      WorldPair{PageTable(page_size, num_pages), FlatRef(page_size, num_pages)}));

  for (int step = 0; step < 300; ++step) {
    const std::size_t w = rng.next_below(worlds.size());
    switch (rng.next_below(13)) {
      case 0:
      case 1: {  // fork a new world
        if (worlds.size() < 8) {
          worlds.push_back(std::make_unique<WorldPair>(WorldPair{
              worlds[w]->table.fork(), worlds[w]->ref.fork()}));
        }
        break;
      }
      case 2: {  // adopt: world v absorbs (and consumes) world w
        if (worlds.size() > 1) {
          const std::size_t v = rng.next_below(worlds.size());
          if (v != w) {
            worlds[v]->table.adopt(std::move(worlds[w]->table));
            worlds[v]->ref.adopt(std::move(worlds[w]->ref));
            worlds.erase(worlds.begin() + static_cast<std::ptrdiff_t>(w));
          }
        }
        break;
      }
      case 3: {  // eliminate: drop a speculative world outright
        if (worlds.size() > 1) {
          worlds.erase(worlds.begin() + static_cast<std::ptrdiff_t>(w));
        }
        break;
      }
      case 4: {  // cross-world diff and sharing agree with the reference
        const std::size_t v = rng.next_below(worlds.size());
        EXPECT_EQ(worlds[w]->table.diff(worlds[v]->table),
                  worlds[w]->ref.diff(worlds[v]->ref))
            << "seed=" << seed << " step=" << step;
        EXPECT_EQ(worlds[w]->table.shared_pages_with(worlds[v]->table),
                  worlds[w]->ref.shared_pages_with(worlds[v]->ref))
            << "seed=" << seed << " step=" << step;
        break;
      }
      case 5: {  // an alternative block over world w, maybe nested
        run_block(rng, *worlds[w], 1);
        break;
      }
      default: {  // write a random range
        random_write(rng, *worlds[w]);
        break;
      }
    }
  }

  for (std::size_t w = 0; w < worlds.size(); ++w)
    expect_equivalent(*worlds[w], seed, 300 + static_cast<int>(w));
  // Borrowing leaves no page behind: with every world gone, so is every
  // page either side made.
  worlds.clear();
  EXPECT_EQ(Page::live_instances(), live_before) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageMapModelTest,
                         ::testing::Range<std::uint64_t>(1, 33));

// Deep-tree spot check: a sparse write pattern across a 2^18-page space
// (depth-3 radix tree) round-trips and diffs correctly at the boundaries
// between leaves, inner nodes and absent subtrees.
TEST(PageMapModel, SparseDeepTreeBoundaries) {
  const std::size_t page_size = 16;
  const std::size_t num_pages = std::size_t{1} << 18;
  PageTable t(page_size, num_pages);
  FlatRef ref(page_size, num_pages);

  const std::size_t probes[] = {0,     63,     64,     4095,   4096,
                                4097,  262143, 131072, 65535,  65536};
  std::uint8_t v = 1;
  for (std::size_t p : probes) {
    std::vector<std::uint8_t> data{v++};
    t.write(p * page_size, data);
    ref.write(p * page_size, data);
  }
  EXPECT_EQ(t.resident_pages(), ref.resident_pages());

  PageTable child = t.fork();
  std::vector<std::uint8_t> data{0xAA};
  child.write(std::uint64_t{4096} * page_size, data);
  child.write(std::uint64_t{262143} * page_size, data);
  EXPECT_EQ(child.diff(t), (std::vector<std::size_t>{4096, 262143}));
  EXPECT_EQ(child.shared_pages_with(t), t.resident_pages() - 2);

  for (std::size_t p : probes) {
    std::vector<std::uint8_t> got(1);
    t.read(p * page_size, got);
    std::vector<std::uint8_t> want(1);
    std::memcpy(want.data(), ref.read_all().data() + p * page_size, 1);
    EXPECT_EQ(got, want) << "page " << p;
  }
}

// The tree is the shallowest one whose capacity (64^depth) covers the
// page count, up to counts near 2^64, where the capacity itself overflows.
TEST(PageMapModel, DepthCoversThePageCount) {
  const std::pair<std::size_t, int> cases[] = {
      {1, 1},           {64, 1},         {65, 2},
      {4096, 2},        {4097, 3},       {std::size_t{1} << 60, 10},
      {(std::size_t{1} << 60) + 1, 11},  {SIZE_MAX, 11}};
  for (const auto& [pages, depth] : cases)
    EXPECT_EQ(PageMap(pages).depth(), depth) << pages << " pages";
}

}  // namespace
}  // namespace mw
