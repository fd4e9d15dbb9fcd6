#include "trace/trace.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>

namespace mw::trace {

namespace {

// One thread's private ring. Owned jointly by the thread (via the
// thread_local handle below) and the registry (so collect() can read
// rings of threads that have exited). Only the owning thread writes
// head_/events_; collect() snapshots under the registry mutex while
// recording is globally disabled or racing benignly — record order is
// reconstructed from seq, and torn reads are impossible in practice
// because collect()/drain() are called from quiesced sections (bench
// teardown, test asserts). Capacities are rounded up to a power of two
// so the ring index is a mask, not a division — emit() is on the
// instrumented fast path.
std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

struct Ring {
  explicit Ring(std::size_t capacity)
      : events_(round_up_pow2(capacity)),
        capacity_(events_.size()),
        mask_(events_.size() - 1) {}

  // Hands out the next slot for in-place field writes: building the
  // record on the stack and copying it in makes the compiler bounce the
  // 48 bytes through memory (a store-forwarding stall per event).
  TraceEvent& next_slot() {
    TraceEvent& slot = events_[head_ & mask_];
    ++head_;
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    if (head_ - t > capacity_)  // overwrote the oldest record
      tail_.store(t + 1, std::memory_order_relaxed);
    return slot;
  }

  // tail_ advances exactly once per overwritten record, so it doubles as
  // the dropped-events counter — a relaxed store by the owning thread,
  // not a fetch_add, keeps the full-ring push path RMW-free apart from
  // the seq counter.
  std::uint64_t dropped() const {
    return tail_.load(std::memory_order_relaxed);
  }

  void snapshot(std::vector<TraceEvent>& out) const {
    for (std::size_t i = tail_.load(std::memory_order_relaxed); i < head_;
         ++i)
      out.push_back(events_[i & mask_]);
  }

  void clear() {
    head_ = 0;
    tail_.store(0, std::memory_order_relaxed);
  }

  std::vector<TraceEvent> events_;
  std::size_t capacity_;
  std::size_t mask_;
  std::size_t head_ = 0;  // next slot to write (monotonic)
  // Oldest live record (monotonic); atomic because dropped() and the
  // auditor read it while the owner pushes.
  std::atomic<std::size_t> tail_{0};
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<Ring>> rings;
  std::size_t ring_capacity = std::size_t{1} << 16;
  std::uint16_t next_tid = 0;
};

Registry& registry() {
  static Registry r;
  return r;
}

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_seq{0};

// Per-thread state is three constant-initialized PODs, not a struct with
// a destructor: a plain pointer needs no thread_local init guard and no
// shared_ptr deref on the emit path. The pointee stays valid after thread
// exit because the registry holds a shared_ptr to every ring forever.
thread_local Ring* t_ring = nullptr;
thread_local std::uint16_t t_tid = 0;
thread_local VTime t_now = kNoTraceTime;

// Registers this thread's ring on first use. Out of line: emit() only
// pays for the registration branch, never the mutex, once attached.
Ring* attach_ring() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto ring = std::make_shared<Ring>(r.ring_capacity);
  t_ring = ring.get();
  t_tid = r.next_tid++;
  r.rings.push_back(std::move(ring));
  return t_ring;
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void set_ring_capacity(std::size_t events) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.ring_capacity = events < 2 ? 2 : events;
}

void emit(EventKind kind, Pid pid, Pid other, std::uint64_t a, std::uint64_t b,
          VTime t) {
  if (!enabled()) return;
  Ring* ring = t_ring;
  if (!ring) ring = attach_ring();
  TraceEvent& e = ring->next_slot();
  e.seq = g_seq.fetch_add(1, std::memory_order_relaxed);
  e.t = (t == kNoTraceTime) ? t_now : t;
  e.a = a;
  e.b = b;
  e.pid = pid;
  e.other = other;
  e.kind = kind;
  e.tid = t_tid;
  e.pad = 0;
}

void set_now(VTime t) { t_now = t; }

VTime now() { return t_now; }

std::vector<TraceEvent> collect() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<TraceEvent> out;
  for (const auto& ring : r.rings) ring->snapshot(out);
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& x, const TraceEvent& y) {
              return x.seq < y.seq;
            });
  return out;
}

std::vector<TraceEvent> drain() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<TraceEvent> out;
  for (const auto& ring : r.rings) {
    ring->snapshot(out);
    ring->clear();
  }
  g_seq.store(0, std::memory_order_relaxed);
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& x, const TraceEvent& y) {
              return x.seq < y.seq;
            });
  return out;
}

std::uint64_t dropped() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::uint64_t total = 0;
  for (const auto& ring : r.rings)
    total += ring->dropped();
  return total;
}

std::uint64_t emitted() { return g_seq.load(std::memory_order_relaxed); }

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& ring : r.rings) ring->clear();
  g_seq.store(0, std::memory_order_relaxed);
}

const char* kind_name(EventKind k) {
  switch (k) {
#define MW_TRACE_KIND_NAME(kind, value, name) \
  case EventKind::kind:                       \
    return name;
    MW_TRACE_KINDS(MW_TRACE_KIND_NAME)
#undef MW_TRACE_KIND_NAME
  }
  return "unknown";
}

}  // namespace mw::trace
