// kPool: alternative blocks as work-stealing tasks; the contract is in
// alt_block.hpp. Pre-spawn guards and the child's verdict are shared with
// kVirtual; this file owns the wall-clock rest of the lifecycle — admission
// before any world is forked, alternatives submitted as prioritized tasks
// in the policy's plan order, the at-most-once sync point with
// winner-side revocation of queued siblings, the helping wait, the commit,
// the losers' settlement and the scrub-before-release teardown. Children
// borrow the parent's pages (scoped forks), so the block commits only
// after every sibling has ended. A losing child drops its own world on the
// worker that ran it.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "core/alt_block.hpp"
#include "core/runtime.hpp"
#include "core/spec_scheduler.hpp"
#include "proc/process_table.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace mw {

namespace internal {

namespace {

/// How a spawned alternative ended.
enum class End {
  kPending,    // not published yet
  kSynced,     // won the at-most-once sync
  kAborted,    // guard, body or acceptance failure
  kCancelled,  // eliminated, or succeeded after a sibling synced
  kRevoked,    // pruned while queued; body never ran, no page copied
  kFaulted,    // killed by sched.steal fault injection; never ran
};

/// The at-most-once sync point (§2.2.1). The parent never reads `race`; it
/// waits on `synced`/`terminal`, which a child publishes under `mu` after
/// its results are in place.
struct SyncPoint {
  explicit SyncPoint(std::size_t m) : ends(m, End::kPending) {}

  /// Maps child k's verdict to its end: a success syncs only if it wins
  /// the CAS; a later success lost the race and is eliminated.
  End arbitrate(Verdict v, std::size_t k) {
    switch (v) {
      case Verdict::kSuccess: {
        int expected = -1;
        return race.compare_exchange_strong(expected, static_cast<int>(k))
                   ? End::kSynced
                   : End::kCancelled;
      }
      case Verdict::kCancelled:
        return End::kCancelled;
      case Verdict::kFailed:
      case Verdict::kHung:
        break;
    }
    return End::kAborted;
  }

  /// Publishes child k's end and wakes the parent.
  void publish(std::size_t k, End end) {
    {
      std::lock_guard<std::mutex> lk(mu);
      ends[k] = end;
      if (end == End::kSynced) synced = static_cast<int>(k);
      ++terminal;
    }
    cv.notify_all();
  }

  std::mutex mu;
  std::condition_variable cv;
  std::atomic<int> race{-1};
  int synced = -1;
  std::size_t terminal = 0;
  std::vector<End> ends;
};

/// Forks one world per spawned alternative (`pids[k]` for `spawned[k]`),
/// marking each kRunning, and charges the serial fork time as setup. The
/// forks are scoped: they borrow the parent's pages, which the parent's
/// own map holds unchanged until the block commits after every sibling
/// has ended.
std::vector<World> spawn_worlds(ProcessTable& table, World& parent,
                                const std::vector<std::size_t>& spawned,
                                const std::vector<Pid>& pids,
                                std::uint64_t group, const Stopwatch& clock,
                                AltOutcome& out) {
  MW_TRACE_EVENT(trace::EventKind::kAltBlockBegin, parent.pid(), kNoPid,
                 group, pids.size(), 0);
  Stopwatch setup_clock;
  std::vector<World> worlds;
  worlds.reserve(pids.size());
  for (std::size_t k = 0; k < pids.size(); ++k) {
    MW_TRACE_EVENT(trace::EventKind::kAltSpawn, pids[k], parent.pid(), group,
                   spawned[k] + 1, static_cast<VTime>(clock.elapsed_us()));
    worlds.push_back(parent.fork_scoped_alternative(pids[k], pids));
    table.set_status(pids[k], ProcStatus::kRunning);
  }
  out.overhead.setup = static_cast<VDuration>(setup_clock.elapsed_us());
  return worlds;
}

/// Drops `w`'s pages, keeping its geometry.
void drop_space(World& w) {
  w.space() = AddressSpace(w.space().page_size(),
                           w.space().table().num_pages());
}

/// alt_wait's rendezvous: records alternative `wi` (pid `pid`, world
/// `winner`) as the winner, marks it kSynced and absorbs its world into
/// `parent`, timing the commit.
void commit_winner(ProcessTable& table, World& parent, std::size_t wi,
                   Pid pid, World& winner, Bytes& result, AltOutcome& out) {
  out.winner = wi;
  out.winner_name = out.alts[wi].name;
  Stopwatch commit_clock;
  table.set_status(pid, ProcStatus::kSynced);
  out.result = std::move(result);
  parent.commit_from(std::move(winner));
  out.overhead.commit = static_cast<VDuration>(commit_clock.elapsed_us());
}

/// Writes a spawned alternative's post-mortem: report fields, its terminal
/// status (kAborted/kFaulted fail; kCancelled/kRevoked are eliminated) and
/// the matching trace events stamped from `clock`. `pages_copied` is what
/// the child's world copied, sampled by its task before a loser's world
/// was dropped or the winner's committed.
void settle(AltReport& rep, End end, bool won, Pid pid,
            std::uint64_t pages_copied, ProcessTable& table,
            std::uint64_t group, const Stopwatch& clock) {
  rep.pid = pid;
  rep.success = won;
  rep.ran = end != End::kRevoked && end != End::kFaulted;
  rep.revoked = end == End::kRevoked;
  rep.pages_copied = pages_copied;
  switch (end) {
    case End::kSynced:
      break;  // already kSynced (or left to the timeout, if it raced one)
    case End::kAborted:
    case End::kFaulted:
      // A kFaulted sibling crashed before its body ran: Failed, not
      // eliminated — a supervisor watching this pid must see a crash.
      table.set_status(pid, ProcStatus::kFailed);
      MW_TRACE_EVENT(trace::EventKind::kAltAbort, pid, kNoPid, group, 0,
                     static_cast<VTime>(clock.elapsed_us()));
      break;
    case End::kPending:  // unreachable: every end is published first
    case End::kCancelled:
    case End::kRevoked:
      table.set_status(pid, ProcStatus::kEliminated);
      if (end == End::kRevoked)
        MW_TRACE_EVENT(trace::EventKind::kSchedRevoke, pid, kNoPid, group,
                       rep.pages_copied,
                       static_cast<VTime>(clock.elapsed_us()));
      MW_TRACE_EVENT(trace::EventKind::kAltEliminate, pid, kNoPid, group, 0,
                     static_cast<VTime>(clock.elapsed_us()));
      break;
  }
}

}  // namespace

AltOutcome run_alternatives_pool(Runtime& rt, World& parent,
                                 const std::vector<Alternative>& alts,
                                 const AltOptions& opts) {
  Stopwatch block_clock;
  AltOutcome out;
  const auto [group, spawned] = begin_block(rt, parent, alts, opts, out);
  if (spawned.empty()) return out;
  const std::size_t n = alts.size();
  const std::size_t m = spawned.size();
  SpecScheduler& sched = rt.scheduler();
  ProcessTable& table = rt.processes();

  // Admission: fit the race inside the global speculation budget before a
  // single world exists. A rejected race spawns nothing — the block fails
  // the same way an all-guards-false block does, and the caller decides
  // whether to retry sequentially.
  if (!sched.admit(m, parent.pid(), group)) {
    for (std::size_t i = 0; i < n; ++i) out.alts[i].spawned = false;
    out.failed = true;
    out.failure = AltFailure::kAdmissionRejected;
    out.elapsed = static_cast<VDuration>(block_clock.elapsed_us());
    return out;
  }

  std::vector<Pid> sibling_pids;
  sibling_pids.reserve(m);
  for (std::size_t i : spawned)
    sibling_pids.push_back(table.create(parent.pid(), group, alts[i].name));

  std::vector<World> worlds = spawn_worlds(table, parent, spawned,
                                           sibling_pids, group, block_clock,
                                           out);

  // Heap-allocated and shared with every task closure: a task's trailing
  // notify_all runs after sync->mu is released,
  // so the parent — woken by a timed poll on the helping path, or a
  // spurious wakeup — can observe terminal == m and return first,
  // destroying a stack sync point under the notifier. The sync state must
  // own its own lifetime; everything else (worlds, results, cancels) is
  // written strictly before the terminal count is published and may stay
  // on this frame.
  auto sync = std::make_shared<SyncPoint>(m);

  std::vector<CancelToken> cancels(m);
  std::vector<Bytes> results(m);
  // Pages each child's world copied, sampled by its task before it drops a
  // losing world (children that never ran copied none).
  std::vector<std::uint64_t> copied(m, 0);
  // Task handles, written by the submit loop and read by the winner's
  // pruning pass — both under sync->mu (a task can win while later
  // siblings are still being submitted).
  std::vector<SchedTaskRef> tasks(m);

  // Prune every queued sibling of `self` and request cooperative
  // cancellation of the running ones. Called by the winning task at sync
  // time (before the parent wakes: the window in which another worker
  // could start a doomed sibling is the CAS-to-revoke gap, not the
  // sync-to-parent-wakeup gap) and again by the parent, which sweeps any
  // sibling submitted after the winner's pass.
  auto prune_siblings = [&](std::size_t self) {
    std::vector<SchedTaskRef> snapshot;
    {
      std::lock_guard<std::mutex> lk(sync->mu);
      snapshot = tasks;
    }
    for (std::size_t j = 0; j < m; ++j) {
      if (j == self || !snapshot[j]) continue;
      sched.revoke(snapshot[j]);
      cancels[j].request();
    }
  };

  // Effective priorities: in kAdaptive mode the policy engine reorders the
  // race by learned per-position win rate, moving its predicted winner to
  // the hot end of the deque; the last-ranked position is the "deferred"
  // alternative — still submitted, but the likeliest to be revoked unrun
  // when the winner prunes. Keyed by input position, matching
  // observe_race's AltReport.index accounting. kStatic mode passes the base
  // priorities through unchanged.
  std::vector<double> base_priority(n);
  for (std::size_t i = 0; i < n; ++i) base_priority[i] = alts[i].priority;
  const PolicyPlan plan = rt.policy().plan_race(group, base_priority);

  // Submit hottest-first (plan.order): priorities alone cannot reorder a
  // race when workers start popping the inbox before the last sibling is
  // enqueued. Static plans carry the identity order, so this loop walks
  // `spawned` exactly as before.
  std::vector<std::size_t> submit_seq(m);
  for (std::size_t k = 0; k < m; ++k) submit_seq[k] = k;
  if (plan.order.size() == n) {
    std::vector<std::size_t> rank(n, 0);
    for (std::size_t r = 0; r < n; ++r) rank[plan.order[r]] = r;
    std::stable_sort(submit_seq.begin(), submit_seq.end(),
                     [&](std::size_t a, std::size_t b) {
                       return rank[spawned[a]] < rank[spawned[b]];
                     });
  }

  const bool virtual_bodies = sched.deterministic();
  for (const std::size_t k : submit_seq) {
    const std::size_t i = spawned[k];
    auto body_fn = [&, sync, k, i] {
      World& child = worlds[k];
      AltContext ctx(child, i + 1, rt.rng_for(group, i + 1), &cancels[k],
                     virtual_bodies);
      MW_TRACE_EVENT(trace::EventKind::kAltChildBegin, sibling_pids[k],
                     kNoPid, group, 0,
                     static_cast<VTime>(block_clock.elapsed_us()));
      const End end =
          sync->arbitrate(run_child(alts[i], child, ctx, opts.guard_phases), k);
      results[k] = ctx.result();
      copied[k] = child.space().table().stats().pages_copied;
      MW_TRACE_EVENT(trace::EventKind::kAltChildEnd, sibling_pids[k], kNoPid,
                     group, copied[k],
                     static_cast<VTime>(block_clock.elapsed_us()));
      if (end == End::kSynced) {
        MW_TRACE_EVENT(trace::EventKind::kAltSync, sibling_pids[k],
                       parent.pid(), group, 0,
                       static_cast<VTime>(block_clock.elapsed_us()));
        // Cancellation-aware pruning: kill the queued siblings while they
        // have copied zero pages, before the parent even wakes.
        prune_siblings(k);
      } else {
        // A loser's world dies here, on the worker that ran it, so its
        // frames recycle into this worker's pool shard. It is gone before
        // the end is published, so every loser's pages are gone once the
        // block has seen all ends — before it commits.
        drop_space(child);
      }
      sync->publish(k, end);
    };
    auto on_skipped = [sync, k](SchedTask& t) {
      sync->publish(k, t.faulted() ? End::kFaulted : End::kRevoked);
    };
    SchedTaskRef task =
        sched.submit(std::move(body_fn), plan.priority[i], group,
                     sibling_pids[k], std::move(on_skipped), parent.pid(),
                     spawned[k] + 1);
    {
      std::lock_guard<std::mutex> lk(sync->mu);
      tasks[k] = std::move(task);
    }
  }

  // alt_wait. A helping parent (pool worker or deterministic driver) runs
  // tasks between checks instead of sleeping — a fully subscribed pool
  // with nested races must never deadlock on its own parents.
  MW_TRACE_EVENT(trace::EventKind::kAltWait, parent.pid(), kNoPid, group, 0,
                 static_cast<VTime>(block_clock.elapsed_us()));
  const bool bounded = opts.timeout != kVTimeMax;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(bounded ? opts.timeout : 0);
  auto wait_for_pred = [&](auto pred, bool use_deadline) -> bool {
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(sync->mu);
        if (pred()) return true;
      }
      if (use_deadline && std::chrono::steady_clock::now() >= deadline)
        return false;
      if (sched.should_help()) {
        if (sched.run_one()) continue;
        if (sched.deterministic()) {
          // Single-threaded and nothing runnable: every task of this block
          // is terminal, so the predicate must hold now.
          std::unique_lock<std::mutex> lk(sync->mu);
          MW_CHECK(pred());
          return true;
        }
        std::unique_lock<std::mutex> lk(sync->mu);
        sync->cv.wait_for(lk, std::chrono::microseconds(200), pred);
      } else {
        std::unique_lock<std::mutex> lk(sync->mu);
        if (use_deadline) {
          if (!sync->cv.wait_until(lk, deadline, pred)) return false;
        } else {
          sync->cv.wait(lk, pred);
        }
        return true;
      }
    }
  };

  auto decided = [&] { return sync->synced >= 0 || sync->terminal == m; };
  auto all_terminal = [&] { return sync->terminal == m; };

  const bool decided_in_time = wait_for_pred(decided, bounded);
  int wk;
  {
    std::lock_guard<std::mutex> lk(sync->mu);
    wk = sync->synced;
  }

  if (!decided_in_time && wk < 0) {
    // Timeout: revoke what never started, cancel what did, then wait for
    // the running ones to unwind. A child that synced while the timeout fired keeps
    // its at-most-once win and is honoured below.
    prune_siblings(m);  // no winner: prune everyone
    wait_for_pred(all_terminal, false);
    std::lock_guard<std::mutex> lk(sync->mu);
    wk = sync->synced;
    if (wk < 0) {
      out.failed = true;
      out.failure = AltFailure::kTimeout;
    }
  }

  if (wk >= 0) {
    // The winner already pruned its queued siblings; sweep again from the
    // parent to catch any sibling submitted after the winner's pass, then
    // honour the elimination mode.
    Stopwatch elim_clock;
    prune_siblings(static_cast<std::size_t>(wk));
    if (opts.elimination == Elimination::kSynchronous)
      wait_for_pred(all_terminal, false);
    out.overhead.elimination = static_cast<VDuration>(elim_clock.elapsed_us());
  } else if (decided_in_time) {
    out.failed = true;
    out.failure = AltFailure::kAllFailed;
  }

  // The pool's equivalent of joining the threads: every task must be
  // terminal before the worlds vector leaves scope, and before the commit.
  // Running losers unwind at their next checkpoint; revoked ones are
  // already terminal. Until the commit the parent's map holds everything
  // the siblings forked from, unchanged, so each page a sibling borrows is
  // also counted there, and each shared node or page keeps a count of at
  // least 2: no sibling writes in place what another still reads.
  wait_for_pred(all_terminal, false);

  if (wk >= 0) {
    // The forks that never ran go first, so the winner is the only holder
    // of the parent leaves it borrowed from once the commit drops the
    // parent's old map: settling then takes over their counts.
    const auto wku = static_cast<std::size_t>(wk);
    for (std::size_t k = 0; k < m; ++k)
      if (k != wku) drop_space(worlds[k]);
    commit_winner(table, parent, spawned[wku], sibling_pids[wku],
                  worlds[wku], results[wku], out);
  }
  out.elapsed = static_cast<VDuration>(block_clock.elapsed_us());

  for (std::size_t k = 0; k < m; ++k) {
    const bool won = static_cast<int>(k) == wk;
    settle(out.alts[spawned[k]], sync->ends[k], won, sibling_pids[k],
           copied[k], table, group, block_clock);
  }
  MW_TRACE_EVENT(trace::EventKind::kAltBlockEnd, parent.pid(), kNoPid, group,
                 static_cast<std::uint64_t>(out.failure),
                 static_cast<VTime>(block_clock.elapsed_us()));

  // Drop terminal task records of this race still parked in the deques,
  // then destroy this block's worlds before giving the grant back. Every
  // world's pages are gone already; what is left are empty shells (and,
  // after a timeout, the forks that never ran, which own no page).
  // Releasing first would let a new race admit while the old one's worlds
  // still exist, transiently blowing the max_live_worlds budget.
  sched.scrub(group);
  worlds.clear();
  sched.release(m);
  return out;
}

}  // namespace internal

}  // namespace mw
