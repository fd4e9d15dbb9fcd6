// race_cow and race_prune: closed loops of kPool alternative blocks.
//
// Two driver threads each run one run_alternatives block at a time against
// their own root world, on one Runtime with two pool workers (the drivers
// sleep while their block runs, so at most four threads are runnable). The
// op is one block, timed around the call. Inputs (write sets, hints,
// winner positions, payloads) are generated in set-up as a fixed table of
// op templates per driver, which the timed loop cycles through; payloads
// are salted with the op number so no two ops write the same bytes.
//
// Alternative bodies do a fixed amount of work: recurrence steps with a
// cancellation checkpoint between chunks. They never call
// AltContext::compute, which spins for wall-clock time and so does less
// work when preempted.
//
// Traced run (--trace 1): odd ops are traced and even ops are not, so the
// two halves give bench.trace_overhead_ratio under the same load. A traced
// body stamps its first instruction, its return (or its exit by
// cancellation or failure) and its time inside AddressSpace stores; the
// driver stamps block entry and return. The winner's stamps split each
// traced block into queue wait, winner body and tail with nothing left
// over.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <span>
#include <thread>

#include "common.hpp"
#include "core/alt.hpp"
#include "core/alt_context.hpp"
#include "core/runtime.hpp"
#include "pagestore/page_pool.hpp"
#include "service/service.hpp"
#include "util/rng.hpp"
#include "util/threading.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kDrivers = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kTemplates = 2048;  // op templates per driver, cycled
constexpr std::size_t kWarmupOps = 300;   // blocks per driver, in set-up
constexpr std::size_t kMaxAlts = 4;
constexpr std::uint64_t kOpSalt = 0x9e3779b97f4a7c15ull;

/// x -> a*x + b modulo 2^64. Both recurrences below are affine in their
/// seed, so one reference evaluation pins the result for every seed and an
/// output check costs nanoseconds instead of a re-run of the body.
struct Affine {
  std::uint64_t a = 1, b = 0;
  std::uint64_t operator()(std::uint64_t x) const { return a * x + b; }
  /// This map applied after `first`.
  Affine after(const Affine& first) const {
    return {a * first.a, a * first.b + b};
  }
};

template <typename T>
std::span<const std::uint8_t> as_bytes(const T& v) {
  return {reinterpret_cast<const std::uint8_t*>(&v), sizeof v};
}

/// Largest Page::live_instances() seen by traced bodies and drivers.
std::atomic<std::int64_t> g_live_peak{0};

void note_live_pages() {
  const std::int64_t live = mw::Page::live_instances();
  std::int64_t seen = g_live_peak.load(std::memory_order_relaxed);
  while (live > seen &&
         !g_live_peak.compare_exchange_weak(seen, live,
                                            std::memory_order_relaxed)) {
  }
}

/// What one traced alternative body leaves behind.
struct AltStamp {
  std::int64_t start = 0, end = 0, store_ns = 0;
  bool cancelled = false;
};

/// What one driver collects over the timed window (latencies in µs).
struct Samples {
  std::uint64_t ops = 0, ok = 0, bad = 0, cow_pages = 0;
  std::int64_t last_end = 0;
  std::vector<double> lat_plain, lat_traced;
  std::vector<double> queue_wait, body, tail, store, cancel_lag, coverage;
  std::uint64_t losers = 0, losers_ran = 0;
  double loser_body_ns = 0, body_ns = 0;

  void merge(const Samples& o) {
    ops += o.ops;
    ok += o.ok;
    bad += o.bad;
    cow_pages += o.cow_pages;
    last_end = std::max(last_end, o.last_end);
    for (auto [dst, src] : {std::pair{&lat_plain, &o.lat_plain},
                            {&lat_traced, &o.lat_traced},
                            {&queue_wait, &o.queue_wait},
                            {&body, &o.body},
                            {&tail, &o.tail},
                            {&store, &o.store},
                            {&cancel_lag, &o.cancel_lag},
                            {&coverage, &o.coverage}})
      dst->insert(dst->end(), src->begin(), src->end());
    losers += o.losers;
    losers_ran += o.losers_ran;
    loser_body_ns += o.loser_body_ns;
    body_ns += o.body_ns;
  }
};

/// One driver: a root world, its op templates and the alternatives that
/// read them. Bodies read the driver's op state; run_alternatives returns
/// only after every alternative task is terminal, so no body ever sees the
/// next op's state.
class Driver {
 public:
  Driver(mw::Runtime& rt, const std::string& label)
      : rt_(rt), root_(rt.make_root(label)) {}
  virtual ~Driver() = default;
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  /// Runs block `op` (stamped when `traced`) and records it in `s`.
  void step(std::size_t op, bool traced, Samples& s);

 protected:
  /// Points the alternatives at op `op_` (priorities, for instance).
  virtual void prepare() {}
  /// The output check of a block that committed a winner.
  virtual bool check(const mw::AltOutcome& out) = 0;

  /// Runs `work(stamp)` as alternative `alt`'s body, stamping it when the
  /// op is traced — the exit by cancellation or failure included.
  template <typename F>
  void stamped(std::size_t alt, F&& work) {
    AltStamp& s = stamps_[alt];
    if (!traced_) {
      work(s);
      return;
    }
    s.start = now_ns();
    try {
      work(s);
    } catch (const mw::CancelledError&) {
      s.end = now_ns();
      s.cancelled = true;
      throw;
    } catch (...) {
      s.end = now_ns();
      throw;
    }
    s.end = now_ns();
    note_live_pages();
  }

  /// An AddressSpace store, timed into `s` when the op is traced.
  void write(mw::AltContext& ctx, AltStamp& s, std::uint64_t off,
             std::span<const std::uint8_t> bytes) {
    if (!traced_) {
      ctx.space().write(off, bytes);
      return;
    }
    const std::int64_t t0 = now_ns();
    ctx.space().write(off, bytes);
    s.store_ns += now_ns() - t0;
  }

  mw::Runtime& rt_;
  mw::World root_;
  std::size_t op_ = 0;
  bool traced_ = false;
  std::array<AltStamp, kMaxAlts> stamps_{};
  std::vector<mw::Alternative> alts_;
};

void Driver::step(std::size_t op, bool traced, Samples& s) {
  op_ = op;
  traced_ = traced;
  stamps_ = {};
  prepare();
  const std::int64_t t0 = now_ns();
  const mw::AltOutcome out = mw::run_alternatives(rt_, root_, alts_);
  const std::int64_t t1 = now_ns();
  ++s.ops;
  s.last_end = t1;
  for (const mw::AltReport& a : out.alts) s.cow_pages += a.pages_copied;
  if (out.failed || !out.winner || !check(out)) {
    ++s.bad;
    return;
  }
  ++s.ok;
  const double lat = ns_to_us(t1 - t0);
  if (!traced) {
    s.lat_plain.push_back(lat);
    return;
  }
  s.lat_traced.push_back(lat);
  const std::size_t w = *out.winner;
  const AltStamp& win = stamps_[w];
  s.queue_wait.push_back(ns_to_us(win.start - t0));
  s.body.push_back(ns_to_us(win.end - win.start));
  s.tail.push_back(ns_to_us(t1 - win.end));
  s.coverage.push_back(ratio(static_cast<double>((win.start - t0) +
                                                 (win.end - win.start) +
                                                 (t1 - win.end)),
                             static_cast<double>(t1 - t0)));
  s.store.push_back(ns_to_us(win.store_ns));
  for (std::size_t j = 0; j < alts_.size(); ++j) {
    const AltStamp& a = stamps_[j];
    const double ran_ns = a.start ? static_cast<double>(a.end - a.start) : 0;
    s.body_ns += ran_ns;
    if (j == w) continue;
    ++s.losers;
    if (out.alts[j].ran) ++s.losers_ran;
    s.loser_body_ns += ran_ns;
    if (a.cancelled) s.cancel_lag.push_back(ns_to_us(a.end - win.end));
  }
  note_live_pages();
}

// ---------------------------------------------------------------------------
// race_cow: 3 equal-priority alternatives over a populated 16 MiB root.
// Each writes a seeded, skewed set of 32-256 whole 4 KiB pages, so COW
// breaks, PagePool recycling and commit carry the block.

constexpr std::size_t kCowPageSize = 4096;
constexpr std::size_t kCowPages = 4096;  // 16 MiB
constexpr std::size_t kCowAlts = 3;
constexpr std::size_t kCowWords = kCowPageSize / sizeof(std::uint64_t);
constexpr std::uint64_t kFillMul = 0xd1342543de82ef95ull;

using PageWords = std::array<std::uint64_t, kCowWords>;

/// Page contents: word i = word(i-1) * kFillMul + i, word(-1) = seed.
void fill_page(PageWords& words, std::uint64_t seed) {
  std::uint64_t acc = seed;
  for (std::size_t i = 0; i < kCowWords; ++i) {
    acc = acc * kFillMul + i;
    words[i] = acc;
  }
}

constexpr Affine kFirstWord{kFillMul, 0};

Affine last_word_map() {
  Affine f;
  for (std::size_t i = 0; i < kCowWords; ++i) f = Affine{kFillMul, i}.after(f);
  return f;
}

struct CowOp {
  std::array<std::vector<std::uint16_t>, kCowAlts> pages;  // write sets
  std::array<std::uint64_t, kCowAlts> payload{};
};

class CowDriver final : public Driver {
 public:
  CowDriver(mw::Runtime& rt, std::size_t id, std::uint64_t seed)
      : Driver(rt, "cow" + std::to_string(id)),
        last_word_(last_word_map()),
        shadow_(kCowPages),
        mark_(kCowPages, 0),
        ops_(kTemplates) {
    mw::Rng rng(mix64(seed * 2 + id));
    // Every page resident, so every alternative write breaks a shared page.
    PageWords words;
    for (std::size_t p = 0; p < kCowPages; ++p) {
      shadow_[p] = rng.next_u64();
      fill_page(words, shadow_[p]);
      root_.space().write(p * kCowPageSize, as_bytes(words));
    }
    // Sizes skew small (most alternatives write few pages, some many) and
    // pages skew hot (low page numbers are written far more often).
    std::vector<std::size_t> seen(kCowPages, 0);
    std::size_t tag = 0;
    for (CowOp& op : ops_) {
      for (std::size_t a = 0; a < kCowAlts; ++a) {
        ++tag;
        const double u = rng.next_double();
        const std::size_t n = 32 + static_cast<std::size_t>(225.0 * u * u);
        std::vector<std::uint16_t>& set = op.pages[a];
        while (set.size() < n) {
          const double v = rng.next_double();
          const auto p = static_cast<std::size_t>(kCowPages * v * v * v);
          if (seen[p] == tag) continue;
          seen[p] = tag;
          set.push_back(static_cast<std::uint16_t>(p));
        }
        op.payload[a] = rng.next_u64();
      }
    }
    for (std::size_t a = 0; a < kCowAlts; ++a)
      alts_.push_back(mw::Alternative{
          "cow" + std::to_string(a), nullptr,
          [this, a](mw::AltContext& ctx) { body(ctx, a); }, nullptr, 0.0});
  }

 protected:
  bool check(const mw::AltOutcome& out) override {
    const std::size_t w = *out.winner;
    std::uint64_t id = 0;
    if (out.result.size() != sizeof id) return false;
    std::memcpy(&id, out.result.data(), sizeof id);
    const CowOp& op = ops_[op_ % kTemplates];
    const mw::AddressSpace& space = root_.space();
    bool ok = id == w;
    // The parent holds the winner's bytes ...
    for (std::uint16_t p : op.pages[w]) {
      const std::uint64_t seed = page_seed(op, w, p);
      ok = ok && first_word(space, p) == kFirstWord(seed) &&
           last_word(space, p) == last_word_(seed);
      shadow_[p] = seed;
      mark_[p] = op_ + 1;
    }
    // ... and pages only a loser wrote still hold the previous commit's.
    for (std::size_t a = 0; a < kCowAlts; ++a) {
      if (a == w) continue;
      for (std::uint16_t p : op.pages[a])
        if (mark_[p] != op_ + 1)
          ok = ok && last_word(space, p) == last_word_(shadow_[p]);
    }
    return ok;
  }

 private:
  std::uint64_t page_seed(const CowOp& op, std::size_t a,
                          std::size_t p) const {
    return mix64(op.payload[a] + op_ * kOpSalt + p);
  }
  static std::uint64_t first_word(const mw::AddressSpace& s, std::size_t p) {
    return s.load<std::uint64_t>(p * kCowPageSize);
  }
  static std::uint64_t last_word(const mw::AddressSpace& s, std::size_t p) {
    return s.load<std::uint64_t>((p + 1) * kCowPageSize - 8);
  }

  void body(mw::AltContext& ctx, std::size_t a) {
    stamped(a, [&](AltStamp& s) {
      const CowOp& op = ops_[op_ % kTemplates];
      PageWords words;
      for (std::uint16_t p : op.pages[a]) {
        ctx.checkpoint();
        fill_page(words, page_seed(op, a, p));
        write(ctx, s, p * kCowPageSize, as_bytes(words));
      }
      const std::uint64_t id = a;
      ctx.set_result(as_bytes(id));
    });
  }

  const Affine last_word_;
  std::vector<std::uint64_t> shadow_;  // seed of each page's committed bytes
  std::vector<std::size_t> mark_;      // op + 1 of the op whose winner wrote it
  std::vector<CowOp> ops_;
};

// ---------------------------------------------------------------------------
// race_prune: 4-way races over a 16 x 256 B world. One alternative carries
// a static priority hint; the seeded true winner is the hinted one 75% of
// the time, otherwise the other alternative submitted last — the
// scheduler's worst case, in which both remaining losers start first. A
// wrong hint does its work and fails, and the other losers carry 10x the
// winner's work. Submit, steal, revoke, cooperative cancellation and wasted
// work carry the block; the pagestore sees one 256 B page per op. (With the
// wrong-hint winner drawn among all three others, the 1% tail split between
// one and two loser-lengths of waiting and p99 jumped 40% between runs.)

constexpr std::size_t kPrunePageSize = 256;
constexpr std::size_t kPrunePages = 16;
constexpr std::size_t kPruneAlts = 4;
constexpr std::uint64_t kChunk = 1024;  // recurrence steps per checkpoint
constexpr std::uint64_t kWinChunks = 64;
constexpr std::uint64_t kLoseChunks = 10 * kWinChunks;
constexpr double kHintRight = 0.75;

/// service_reference(x, kChunk) applied `chunks` times, in closed form.
Affine chunks_map(std::uint64_t chunks) {
  const std::uint64_t b = mw::service_reference(0, kChunk);
  const Affine step{mw::service_reference(1, kChunk) - b, b};
  Affine f;
  for (std::uint64_t c = 0; c < chunks; ++c) f = step.after(f);
  return f;
}

struct PruneOp {
  std::size_t hint = 0, winner = 0;
  std::uint64_t payload = 0;
};

class PruneDriver final : public Driver {
 public:
  PruneDriver(mw::Runtime& rt, std::size_t id, std::uint64_t seed)
      : Driver(rt, "prune" + std::to_string(id)),
        win_(chunks_map(kWinChunks)),
        ops_(kTemplates) {
    mw::Rng rng(mix64(seed * 2 + id));
    for (PruneOp& op : ops_) {
      op.hint = rng.next_below(kPruneAlts);
      op.winner = op.hint;
      if (!rng.next_bool(kHintRight))
        op.winner = op.hint == kPruneAlts - 1 ? kPruneAlts - 2 : kPruneAlts - 1;
      op.payload = rng.next_u64();
    }
    for (std::size_t a = 0; a < kPruneAlts; ++a)
      alts_.push_back(mw::Alternative{
          "alt" + std::to_string(a), nullptr,
          [this, a](mw::AltContext& ctx) { body(ctx, a); }, nullptr, 0.0});
  }

 protected:
  void prepare() override {
    const PruneOp& op = ops_[op_ % kTemplates];
    for (std::size_t a = 0; a < kPruneAlts; ++a)
      alts_[a].priority = a == op.hint ? 1.0 : 0.0;
  }

  bool check(const mw::AltOutcome& out) override {
    const PruneOp& op = ops_[op_ % kTemplates];
    const std::uint64_t want = win_(input(op, op.winner));
    std::uint64_t got = 0;
    if (*out.winner != op.winner || out.result.size() != sizeof got)
      return false;
    std::memcpy(&got, out.result.data(), sizeof got);
    return got == want && root_.space().load<std::uint64_t>(
                              op.winner * kPrunePageSize) == want;
  }

 private:
  std::uint64_t input(const PruneOp& op, std::size_t a) const {
    return op.payload + op_ * kOpSalt + a;
  }

  void body(mw::AltContext& ctx, std::size_t a) {
    stamped(a, [&](AltStamp& s) {
      const PruneOp& op = ops_[op_ % kTemplates];
      const bool wins = a == op.winner;
      const std::uint64_t chunks =
          wins || a == op.hint ? kWinChunks : kLoseChunks;
      std::uint64_t acc = input(op, a);
      for (std::uint64_t c = 0; c < chunks; ++c) {
        ctx.checkpoint();
        acc = mw::service_reference(acc, kChunk);
      }
      if (!wins) ctx.fail(a == op.hint ? "wrong hint" : "not the winner");
      write(ctx, s, a * kPrunePageSize, as_bytes(acc));
      ctx.set_result(as_bytes(acc));
    });
  }

  const Affine win_;
  std::vector<PruneOp> ops_;
};

// ---------------------------------------------------------------------------

mw::RuntimeConfig runtime_config(bool cow, std::uint64_t seed) {
  mw::RuntimeConfig c;
  c.backend = mw::AltBackend::kPool;
  c.page_size = cow ? kCowPageSize : kPrunePageSize;
  c.num_pages = cow ? kCowPages : kPrunePages;
  c.seed = seed;
  c.pool.workers = kWorkers;
  return c;
}

/// Runs `fn(d)` on one thread per driver and joins them.
template <typename F>
void on_drivers(F fn) {
  std::vector<std::thread> threads;
  for (std::size_t d = 0; d < kDrivers; ++d) threads.emplace_back(fn, d);
  for (std::thread& t : threads) t.join();
}

}  // namespace

RunResult run_race(const Args& args) {
  const bool cow = args.workload == "race_cow";
  std::unique_ptr<mw::Runtime> rt;
  std::vector<std::unique_ptr<Driver>> drivers;
  std::vector<double> setups;
  std::uint64_t warm_bad = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    drivers.clear();
    rt.reset();
    // Each set-up starts from a cold frame pool, as a fresh process does.
    mw::PagePool::global().clear();
    const std::int64_t t0 = now_ns();
    rt = std::make_unique<mw::Runtime>(runtime_config(cow, args.seed));
    rt->scheduler();  // spawns the pool workers
    for (std::size_t d = 0; d < kDrivers; ++d) {
      if (cow) {
        drivers.push_back(std::make_unique<CowDriver>(*rt, d, args.seed));
      } else {
        drivers.push_back(std::make_unique<PruneDriver>(*rt, d, args.seed));
      }
    }
    std::vector<Samples> warm(kDrivers);
    on_drivers([&](std::size_t d) {
      for (std::size_t k = 0; k < kWarmupOps; ++k)
        drivers[d]->step(k, false, warm[d]);
    });
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    for (const Samples& w : warm) warm_bad += w.bad;
  }

  // The timed window: every driver runs blocks back to back until the
  // deadline; a block in flight at the deadline finishes and counts.
  std::vector<Samples> per(kDrivers);
  const auto reserve = static_cast<std::size_t>(args.seconds * 20000);
  for (Samples& s : per) {
    s.lat_plain.reserve(reserve);
    if (args.trace) s.lat_traced.reserve(reserve);
  }
  g_live_peak.store(mw::Page::live_instances());
  const mw::PagePool::PoolStats pool0 = mw::PagePool::global().stats();
  const mw::SchedStats sched0 = rt->scheduler().stats();
  const double cpu0 = cpu_us();
  const std::int64_t start = now_ns();
  const std::int64_t end =
      start + static_cast<std::int64_t>(args.seconds * 1e9);
  on_drivers([&](std::size_t d) {
    for (std::size_t k = kWarmupOps; now_ns() < end; ++k)
      drivers[d]->step(k, args.trace && k % 2 == 1, per[d]);
  });
  const double cpu = cpu_us() - cpu0;
  const mw::PagePool::PoolStats pool1 = mw::PagePool::global().stats();
  const mw::SchedStats sched1 = rt->scheduler().stats();
  Samples all;
  for (const Samples& s : per) all.merge(s);

  RunResult r;
  r.attempted = all.ops;
  r.failed = all.bad;
  r.correct = all.bad == 0 && warm_bad == 0;
  const double ops = static_cast<double>(all.ops);
  if (!args.trace) {
    EndToEnd e;
    e.setup_s = setups;
    e.latency_us = std::move(all.lat_plain);
    e.throughput_per_s = static_cast<double>(all.ok) /
                         (static_cast<double>(all.last_end - start) / 1e9);
    e.ok_ratio = ratio(static_cast<double>(all.ok), ops);
    e.cpu_us_per_op = ratio(cpu, ops);
    e.peak_rss_mb = peak_rss_mb();
    add_end_to_end(r.report, std::move(e));
    return r;
  }

  Layers l;
  l.cow_pages_per_op = ratio(static_cast<double>(all.cow_pages), ops);
  const auto hits = static_cast<double>(pool1.hits - pool0.hits);
  const auto misses = static_cast<double>(pool1.misses - pool0.misses);
  l.pool_hit_ratio = ratio(hits, hits + misses);
  l.live_pages_peak = static_cast<double>(g_live_peak.load());
  l.revoked_ratio = ratio(static_cast<double>(sched1.revoked - sched0.revoked),
                          static_cast<double>(sched1.submitted -
                                              sched0.submitted));
  l.steal_ratio = ratio(static_cast<double>(sched1.stolen - sched0.stolen),
                        static_cast<double>(sched1.executed -
                                            sched0.executed));
  l.loser_ran_ratio = ratio(static_cast<double>(all.losers_ran),
                            static_cast<double>(all.losers));
  l.wasted_work_ratio = ratio(all.loser_body_ns, all.body_ns);
  l.trace_overhead_ratio =
      ratio(median(all.lat_traced), median(all.lat_plain)) - 1;
  l.span_coverage = median(all.coverage);
  l.winner_store_us = std::move(all.store);
  l.queue_wait_us = std::move(all.queue_wait);
  l.winner_body_us = std::move(all.body);
  l.tail_us = std::move(all.tail);
  l.cancel_lag_us = std::move(all.cancel_lag);
  add_layers(r.report, std::move(l));
  return r;
}

}  // namespace perfbench
