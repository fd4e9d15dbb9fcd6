// The wall-clock thread backend for alternative blocks: one OS thread per
// alternative around the shared block lifecycle (alt_block.hpp: verdict,
// CAS sync point, commit, settlement), cooperative elimination. On a
// multi-core host this delivers real response-time wins; semantics are
// identical to the virtual backend.
//
// Elimination is cooperative, so a loser that never observes its cancel
// token (a hang with no checkpoint) used to wedge the block forever in the
// final join. The block now *reaps* with a bounded join: losers get
// opts.reap_deadline microseconds to acknowledge cancellation, then are
// detached as stragglers (AltReport::straggler). Everything a detached
// thread can still touch lives in a heap-allocated Block shared with each
// thread — the block call can return while a straggler unwinds.
#include <chrono>
#include <memory>
#include <thread>

#include "core/alt_block.hpp"
#include "core/runtime.hpp"
#include "trace/trace.hpp"

namespace mw {

namespace internal {

namespace {

// Everything an alternative thread reads or writes after spawn. Heap
// allocated and shared (parent + one ref per thread) so a detached
// straggler never touches the parent's dead stack frame — it owns copies
// of the alternatives themselves (callers pass temporaries), the forked
// worlds, and pre-derived RNG streams; nothing of Runtime or the parent
// World is reachable from a child thread.
struct Block {
  explicit Block(std::size_t m) : cancels(m), results(m), sync(m) {}

  std::vector<Alternative> alts;       // the spawned subset, copied
  std::vector<std::size_t> alt_index;  // original 0-based index per entry
  std::vector<Pid> pids;
  std::vector<World> worlds;
  std::vector<Rng> rngs;
  std::vector<CancelToken> cancels;
  std::vector<Bytes> results;

  unsigned guard_phases = 0;
  Pid parent_pid = kNoPid;
  std::uint64_t group = 0;
  Stopwatch clock;
  SyncPoint sync;  // sync.ends[k] != kPending <=> thread k published
};

void run_alternative(const std::shared_ptr<Block>& blk, std::size_t k) {
  World& child = blk->worlds[k];
  AltContext ctx(child, blk->alt_index[k] + 1, blk->rngs[k],
                 &blk->cancels[k], /*virtual_mode=*/false);
  MW_TRACE_EVENT(trace::EventKind::kAltChildBegin, blk->pids[k], kNoPid,
                 blk->group, 0,
                 static_cast<VTime>(blk->clock.elapsed_us()));
  const End end = blk->sync.arbitrate(
      run_child(blk->alts[k], child, ctx, blk->guard_phases), k);
  blk->results[k] = ctx.result();
  MW_TRACE_EVENT(trace::EventKind::kAltChildEnd, blk->pids[k], kNoPid,
                 blk->group, child.space().table().stats().pages_copied,
                 static_cast<VTime>(blk->clock.elapsed_us()));
  if (end == End::kSynced)
    MW_TRACE_EVENT(trace::EventKind::kAltSync, blk->pids[k], blk->parent_pid,
                   blk->group, 0,
                   static_cast<VTime>(blk->clock.elapsed_us()));
  blk->sync.publish(k, end);
}

}  // namespace

AltOutcome run_alternatives_thread(Runtime& rt, World& parent,
                                   const std::vector<Alternative>& alts,
                                   const AltOptions& opts) {
  AltOutcome out;
  const auto [group, spawned] = begin_block(rt, parent, alts, opts, out);
  if (spawned.empty()) return out;
  ProcessTable& table = rt.processes();
  const std::size_t m = spawned.size();

  auto blk = std::make_shared<Block>(m);
  blk->alt_index = spawned;
  blk->guard_phases = opts.guard_phases;
  blk->parent_pid = parent.pid();
  blk->group = group;
  blk->alts.reserve(m);
  blk->rngs.reserve(m);
  for (std::size_t i : spawned) {
    blk->alts.push_back(alts[i]);
    blk->rngs.push_back(rt.rng_for(group, i + 1));
    blk->pids.push_back(table.create(parent.pid(), group, alts[i].name));
  }
  SyncPoint& sync = blk->sync;

  // Spawn: fork the worlds up front (serial, charged as setup), then start
  // one thread per alternative; the OS plays the role of the processors.
  blk->worlds = spawn_worlds(table, parent, spawned, blk->pids, group,
                             blk->clock, out);

  std::vector<std::thread> threads;
  threads.reserve(m);
  for (std::size_t k = 0; k < m; ++k)
    threads.emplace_back([blk, k] { run_alternative(blk, k); });

  // Blocks on the sync point until `pred` holds or `us` microseconds pass
  // (kVTimeMax: forever).
  auto wait = [&](auto pred, VDuration us) {
    std::unique_lock<std::mutex> lk(sync.mu);
    if (us == kVTimeMax) {
      sync.cv.wait(lk, pred);
    } else {
      sync.cv.wait_for(lk, std::chrono::microseconds(us), pred);
    }
  };
  auto all_done = [&] { return sync.terminal == m; };

  // Bounded join: wait for every thread to publish its end, up to the reap
  // deadline; whoever has published joins instantly, whoever has not is
  // detached as a straggler (it holds its own reference to blk).
  std::vector<bool> straggler(m, false);
  auto reap = [&] {
    bool outstanding = false;
    for (auto& t : threads) outstanding = outstanding || t.joinable();
    if (!outstanding) return;  // already reaped (e.g. the timeout path)
    wait(all_done, opts.reap_deadline);
    for (std::size_t k = 0; k < m; ++k) {
      if (!threads[k].joinable()) continue;
      bool published;
      {
        std::lock_guard<std::mutex> lk(sync.mu);
        published = sync.ends[k] != End::kPending;
      }
      if (published) {
        threads[k].join();
      } else {
        threads[k].detach();
        straggler[k] = true;
      }
    }
  };

  // alt_wait in the parent: blocked until a child synchronizes, every child
  // ends, or the timeout elapses.
  MW_TRACE_EVENT(trace::EventKind::kAltWait, parent.pid(), kNoPid, group, 0,
                 static_cast<VTime>(blk->clock.elapsed_us()));
  wait([&] { return sync.synced >= 0 || sync.terminal == m; }, opts.timeout);
  int wk;
  bool decided;
  {
    std::lock_guard<std::mutex> lk(sync.mu);
    wk = sync.synced;
    decided = wk >= 0 || sync.terminal == m;
  }

  if (!decided) {
    // Timeout. Cancel everyone and reap; if a child synchronized while the
    // timeout fired, the at-most-once sync stands and it is honoured.
    for (auto& c : blk->cancels) c.request();
    reap();
    std::lock_guard<std::mutex> lk(sync.mu);
    wk = sync.synced;
    if (wk < 0) {
      out.failed = true;
      out.failure = AltFailure::kTimeout;
    }
  }

  if (wk >= 0) {
    // Eliminate the losing siblings (cooperative: they unwind at their next
    // checkpoint). Asynchronous elimination resumes the parent immediately;
    // synchronous waits for their termination first (§2.2.1) — bounded by
    // the reap deadline, so a wedged loser cannot hold the parent hostage.
    Stopwatch elim_clock;
    for (std::size_t k = 0; k < m; ++k)
      if (static_cast<int>(k) != wk) blk->cancels[k].request();
    if (opts.elimination == Elimination::kSynchronous)
      wait(all_done, opts.reap_deadline);
    out.overhead.elimination = static_cast<VDuration>(elim_clock.elapsed_us());

    const auto wku = static_cast<std::size_t>(wk);
    commit_winner(table, parent, spawned[wku], blk->pids[wku],
                  blk->worlds[wku], blk->results[wku], out);
  } else if (decided) {
    out.failed = true;
    out.failure = AltFailure::kAllFailed;
  }
  out.elapsed = static_cast<VDuration>(blk->clock.elapsed_us());

  // Reap whatever is still out. Under asynchronous elimination the response
  // time was already recorded; this bounded join is the throughput cost the
  // paper accepts, now capped at reap_deadline per block.
  reap();

  for (std::size_t k = 0; k < m; ++k) {
    AltReport& rep = out.alts[spawned[k]];
    rep.straggler = straggler[k];
    End end;
    {
      std::lock_guard<std::mutex> lk(sync.mu);
      end = sync.ends[k];
    }
    // A straggler's world is still being written by its detached thread;
    // its page counters are not sampled (left 0).
    const bool won = static_cast<int>(k) == wk;
    settle(rep, end, won, blk->pids[k],
           won || straggler[k] ? nullptr : &blk->worlds[k], table, group,
           blk->clock);
  }
  MW_TRACE_EVENT(trace::EventKind::kAltBlockEnd, parent.pid(), kNoPid, group,
                 static_cast<std::uint64_t>(out.failure),
                 static_cast<VTime>(blk->clock.elapsed_us()));
  return out;
}

}  // namespace internal

}  // namespace mw
