// SpecScheduler: the work-stealing executor behind the kPool backend.
//
// The paper spawns every alternative eagerly; one OS thread per
// alternative collapses once many races run concurrently (256 races x 4
// alternatives = 1024 threads on however many cores the host has).
// Or-parallel Prolog engines solved the same
// problem with scheduler-mediated work *sharing* instead of
// branch-per-thread (Vieira/Rocha/Silva's splitting strategies,
// Van Overveldt/Demoen's hProlog); this is the worlds equivalent:
//
//   * One worker per hardware thread. `alt_spawn` enqueues alternatives as
//     *tasks*; the OS never sees more runnable threads than cores.
//   * Per-worker deques with Chase-Lev-style discipline: the owner pushes
//     and pops at one end (highest priority first, ties LIFO for cache
//     locality), thieves take from the other (lowest priority first, ties
//     FIFO — stealing the oldest, coarsest work). Each deque is guarded by
//     its own mutex rather than the lock-free Chase-Lev protocol: tasks
//     are whole alternative bodies (microseconds and up), so O(1) critical
//     sections are invisible in profile, and the invariants stay checkable
//     under TSan.
//   * External submitters (a parent thread entering a block, a Supervisor
//     dispatching an attempt) push into a shared *inbox* deque that every
//     worker steals from — all cross-thread hand-offs go through one
//     stealing path, which is also where the `sched.steal` fault point and
//     kSchedSteal trace event live. The inbox has no owner to be polite
//     to, so unlike a worker deque it drains highest-priority first: an
//     externally submitted race starts with its most promising
//     alternative.
//   * Cancellation-aware pruning: a queued task can be *revoked* — an
//     atomic state transition that guarantees its body never runs and its
//     world never copies a page. The winner of a race revokes its queued
//     siblings at sync time, before the parent even wakes.
//   * Bounded admission: a global speculation budget (live speculative
//     worlds, resident pages via the Page ledger) defers or rejects new
//     races under pressure instead of oversubscribing.
//
// Deterministic mode (`deterministic_seed != 0`): no OS threads are
// created; `run_one`/`drain` execute tasks on the calling thread, with a
// seeded RNG choosing at every step which deque to service and whether to
// act as owner (priority/LIFO) or thief (FIFO steal). Each seed explores a
// different interleaving of the same task set — the engine of the
// scheduler equivalence property suite (tests/core/sched_model_test.cpp).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/ids.hpp"
#include "util/rng.hpp"
#include "util/vtime.hpp"

namespace mw {

/// Reported as the taking worker id (trace payload b of kSchedSteal) when a
/// task is taken from the shared inbox by an external helper thread.
inline constexpr std::uint64_t kSchedExternalHelper = ~0ull;

/// Reported as the taking worker id when the deterministic driver's
/// scheduling coin lands on the thief path — there is no real thief, and
/// reporting the victim's own index would misattribute the steal.
inline constexpr std::uint64_t kSchedDetDriver = ~0ull - 1;

struct SchedConfig {
  /// Worker threads. 0 = one per hardware thread.
  std::size_t workers = 0;

  /// Admission budget: maximum speculative worlds in flight across every
  /// concurrent race. 0 = unbounded. When the budget is exhausted a new
  /// race *defers* (waits for capacity) instead of oversubscribing, and is
  /// rejected if capacity does not free up within `admission_wait`.
  std::size_t max_live_worlds = 0;

  /// Admission budget on resident COW pages, checked against the global
  /// Page ledger (Page::live_instances(), the same counter the
  /// RuntimeAuditor audits). 0 = unbounded.
  std::size_t max_resident_pages = 0;

  /// How long (microseconds of wall time) a deferred race waits for the
  /// budget before being rejected outright.
  VDuration admission_wait = 2'000'000;

  /// Non-zero: deterministic single-threaded mode. No workers are spawned;
  /// the seed drives the interleaving exploration described above.
  std::uint64_t deterministic_seed = 0;

  /// Deterministic mode only: probability that a scheduling step acts as a
  /// thief (FIFO steal) rather than as the deque's owner (priority/LIFO).
  double deterministic_steal_prob = 0.5;
};

/// One schedulable unit: an alternative body (or a supervised attempt)
/// plus the metadata the stealing and pruning machinery needs.
class SchedTask {
 public:
  enum class State : int {
    kQueued,   // in some deque, not yet claimed
    kRunning,  // claimed by a worker/helper, body executing
    kDone,     // body ran to completion (however it ended)
    kRevoked,  // pruned while queued: the body never ran
    kFaulted,  // killed by an injected fault at the steal point: never ran
  };

  State state() const {
    return static_cast<State>(state_.load(std::memory_order_acquire));
  }
  bool revoked() const { return state() == State::kRevoked; }
  bool faulted() const { return state() == State::kFaulted; }
  bool never_ran() const {
    const State s = state();
    return s == State::kRevoked || s == State::kFaulted;
  }

  double priority() const { return priority_; }
  std::uint64_t group() const { return group_; }
  Pid pid() const { return pid_; }

 private:
  friend class SpecScheduler;

  std::function<void()> fn_;
  /// Called exactly once when the task terminates *without running*
  /// (revoked or faulted) — the submitter's bookkeeping hook. Completion
  /// of a body that ran is the body's own job.
  std::function<void(SchedTask&)> on_skipped_;
  double priority_ = 0.0;
  std::uint64_t group_ = 0;
  Pid pid_ = kNoPid;
  std::uint64_t seq_ = 0;  // global submission order: the FIFO age
  std::atomic<int> state_{static_cast<int>(State::kQueued)};
};

using SchedTaskRef = std::shared_ptr<SchedTask>;

struct SchedStats {
  std::uint64_t submitted = 0;
  std::uint64_t executed = 0;  // bodies actually run
  std::uint64_t stolen = 0;    // tasks taken from a deque the taker
                               // does not own (includes the inbox)
  std::uint64_t revoked = 0;   // pruned while queued: body never ran
  std::uint64_t faulted = 0;   // killed by sched.steal fault injection
  std::uint64_t admission_deferred = 0;
  std::uint64_t admission_rejected = 0;
};

class SpecScheduler {
 public:
  explicit SpecScheduler(SchedConfig cfg = {});
  ~SpecScheduler();

  SpecScheduler(const SpecScheduler&) = delete;
  SpecScheduler& operator=(const SpecScheduler&) = delete;

  /// Enqueues a task. Called from a worker of this scheduler the task goes
  /// to that worker's own deque (LIFO locality: a nested race runs close
  /// to its parent); from any other thread it goes to the shared inbox.
  /// `on_skipped` fires exactly once if the task terminates without its
  /// body ever running (revoked or faulted).
  SchedTaskRef submit(std::function<void()> fn, double priority,
                      std::uint64_t group, Pid pid,
                      std::function<void(SchedTask&)> on_skipped = nullptr,
                      Pid parent = kNoPid, std::uint64_t alt_index = 0);

  /// Revokes a queued task: guarantees the body never runs. False if the
  /// task already started (or finished) — the caller falls back to
  /// cooperative cancellation. Queried through the `sched.revoke` fault
  /// point: an injected failure makes the revoke "miss", so correctness
  /// may never depend on pruning.
  bool revoke(const SchedTaskRef& task);

  /// Runs at most one pending task on the calling thread. The helping
  /// primitive: a parent blocked in alt_wait on a worker thread calls this
  /// instead of sleeping (nested races would otherwise deadlock a fully
  /// blocked pool), and it is the execution engine of deterministic mode.
  bool run_one();

  /// Deterministic mode: runs tasks until every deque is empty.
  void drain();

  /// Admission control. `admit` blocks (defers) while the budget is
  /// exhausted, up to `cfg.admission_wait`; a race that cannot be admitted
  /// is rejected and must not spawn. Every admit(n) that returns true must
  /// be paired with release(n) when the race's worlds die.
  bool admit(std::size_t worlds, Pid requester, std::uint64_t group);
  void release(std::size_t worlds);

  /// Drops terminal (revoked/done) tasks of `group` still parked in the
  /// deques, releasing their closures. Called at block end so a revoked
  /// sibling's task record does not outlive its race.
  void scrub(std::uint64_t group);

  /// True when alt_wait should drive/help instead of sleeping: always in
  /// deterministic mode, and on threads that are workers of this pool.
  bool should_help() const;

  bool deterministic() const { return cfg_.deterministic_seed != 0; }
  std::size_t worker_count() const { return worker_threads_.size(); }
  std::size_t live_worlds() const;
  const SchedConfig& config() const { return cfg_; }
  SchedStats stats() const;

 private:
  struct Deque {
    mutable std::mutex mu;
    std::deque<SchedTaskRef> tasks;
  };

  std::size_t inbox_index() const { return deques_.size() - 1; }
  void worker_loop(std::size_t self);
  /// Owner end: highest priority, ties broken LIFO (newest).
  SchedTaskRef pop_own(std::size_t self);
  /// Thief end: lowest priority, ties broken FIFO (oldest); the ownerless
  /// inbox instead drains highest priority first. `thief` is a worker
  /// index or kSchedExternalHelper; fires sched.steal.
  SchedTaskRef steal_from(std::size_t victim, std::uint64_t thief);
  SchedTaskRef take_any_as_thief(std::uint64_t thief, std::size_t skip_own);
  /// Claims the task (kQueued -> kRunning) and runs it; handles a fault
  /// injected at the steal point. False if the claim was lost to a revoke.
  bool execute(const SchedTaskRef& task, bool faulted);
  bool run_one_deterministic();

  SchedConfig cfg_;
  std::vector<std::unique_ptr<Deque>> deques_;  // workers... + inbox last
  std::vector<std::thread> worker_threads_;

  std::mutex work_mu_;
  std::condition_variable work_cv_;
  std::atomic<std::size_t> pending_{0};
  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> seq_{0};

  mutable std::mutex admit_mu_;
  std::condition_variable admit_cv_;
  std::size_t live_worlds_ = 0;

  std::mutex det_mu_;  // deterministic mode: guards det_rng_
  Rng det_rng_;

  mutable std::mutex stats_mu_;
  SchedStats stats_;
};

}  // namespace mw
