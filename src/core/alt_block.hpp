// The engine-independent part of an alternative block (§2.2): pre-spawn
// guards, the child's verdict, the at-most-once sync point, the winner's
// commit and the losers' settlement. Each engine keeps only its own
// mechanism:
//   * kVirtual (alt_virtual.cpp) — the cost model, the virtual-processor
//     schedule and virtual-time trace stamps;
//   * kThread (alt_thread.cpp) — one OS thread per alternative, a heap
//     Block a detached straggler can outlive the call on, the bounded reap;
//   * kPool (alt_pool.cpp) — admission, plan order, submit/revoke/prune on
//     the shared work-stealing scheduler, the helping wait and the
//     scrub-before-release order.
// Internal to mw_core; the public surface is core/alt.hpp.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <vector>

#include "core/alt.hpp"
#include "core/alt_context.hpp"
#include "util/stopwatch.hpp"

namespace mw {

class ProcessTable;
class Runtime;

namespace internal {

/// An alternative block's start: its alt group and the indices to spawn.
struct BlockStart {
  std::uint64_t group = 0;           // 0 for an empty block
  std::vector<std::size_t> spawned;  // empty: the block already failed
};

/// Fills out.alts (index, name), allocates the block's alt group, then
/// evaluates pre-spawn guards in the parent when opts.guard_phases asks for
/// it; a guard that throws rejects its alternative. With nothing to spawn
/// the block has failed: kNoAlternatives, or kAllFailed when every guard
/// said no.
BlockStart begin_block(Runtime& rt, const World& parent,
                       const std::vector<Alternative>& alts,
                       const AltOptions& opts, AltOutcome& out);

/// Forks one world per spawned alternative (`pids[k]` for `spawned[k]`),
/// marking each kRunning, and charges the serial fork time as setup. On a
/// wall-clock engine; kVirtual charges its cost model instead.
std::vector<World> spawn_worlds(ProcessTable& table, World& parent,
                                const std::vector<std::size_t>& spawned,
                                const std::vector<Pid>& pids,
                                std::uint64_t group, const Stopwatch& clock,
                                AltOutcome& out);

/// How a child's run ended, before any engine arbitration.
enum class Verdict { kSuccess, kFailed, kHung, kCancelled };

/// The child's side of the block: the in-child guard, the body, the at-sync
/// guard and the acceptance test, each per `guard_phases`. Every exception
/// — from a guard or `accept` as much as from the body, foreign ones (an
/// injected crash) included — becomes a verdict; none escapes.
Verdict run_child(const Alternative& alt, World& child, AltContext& ctx,
                  unsigned guard_phases);

/// How a spawned alternative ended on a wall-clock engine. kThread never
/// produces kRevoked or kFaulted.
enum class End {
  kPending,    // not published yet (a kThread straggler)
  kSynced,     // won the at-most-once sync
  kAborted,    // guard, body or acceptance failure
  kCancelled,  // eliminated, or succeeded after a sibling synced
  kRevoked,    // kPool: pruned while queued; body never ran, no page copied
  kFaulted,    // kPool: killed by sched.steal fault injection; never ran
};

/// The at-most-once sync point shared by kThread and kPool (§2.2.1). The
/// parent never reads `race`; it waits on `synced`/`terminal`, which a
/// child publishes under `mu` after its results are in place.
struct SyncPoint {
  explicit SyncPoint(std::size_t m) : ends(m, End::kPending) {}

  /// Maps child k's verdict to its end: a success syncs only if it wins
  /// the CAS; a later success lost the race and is eliminated.
  End arbitrate(Verdict v, std::size_t k);

  /// Publishes child k's end and wakes the parent.
  void publish(std::size_t k, End end);

  std::mutex mu;
  std::condition_variable cv;
  std::atomic<int> race{-1};
  int synced = -1;
  std::size_t terminal = 0;
  std::vector<End> ends;
};

/// alt_wait's rendezvous on a wall-clock engine: records alternative `wi`
/// (pid `pid`, world `winner`) as the winner, marks it kSynced and absorbs
/// its world into `parent`, timing the commit.
void commit_winner(ProcessTable& table, World& parent, std::size_t wi,
                   Pid pid, World& winner, Bytes& result, AltOutcome& out);

/// Writes a spawned alternative's post-mortem: report fields, its terminal
/// status (kAborted/kFaulted fail; kPending/kCancelled/kRevoked are
/// eliminated) and the matching trace events stamped from `clock`. `world`
/// is sampled for pages_copied unless null (the winner, whose world was
/// committed, or a straggler whose world is still being written).
void settle(AltReport& rep, End end, bool won, Pid pid, const World* world,
            ProcessTable& table, std::uint64_t group, const Stopwatch& clock);

/// The engines. Each returns with every spawned alternative in a terminal
/// status (a kThread straggler excepted) and the winner, if any, committed.
AltOutcome run_alternatives_virtual(Runtime& rt, World& parent,
                                    const std::vector<Alternative>& alts,
                                    const AltOptions& opts);
AltOutcome run_alternatives_thread(Runtime& rt, World& parent,
                                   const std::vector<Alternative>& alts,
                                   const AltOptions& opts);

/// kPool: alternatives as tasks on the shared work-stealing SpecScheduler
/// instead of one OS thread each. Beyond kThread:
///   * Admission — the block asks the scheduler's speculation budget for
///     room *before* forking any world; a rejected block fails with
///     AltFailure::kAdmissionRejected and spawns nothing.
///   * Pruning — when a winner synchronizes it immediately revokes its
///     still-queued siblings, inside the winning task and before the parent
///     even wakes. A revoked alternative's body never runs and its world
///     never breaks a COW page (AltReport::revoked, pages_copied == 0).
///   * Helping — a parent that is itself a pool worker (nested races) or a
///     deterministic-mode caller executes tasks while it waits instead of
///     blocking, so a fully subscribed pool cannot deadlock on nesting.
AltOutcome run_alternatives_pool(Runtime& rt, World& parent,
                                 const std::vector<Alternative>& alts,
                                 const AltOptions& opts);

}  // namespace internal

}  // namespace mw
