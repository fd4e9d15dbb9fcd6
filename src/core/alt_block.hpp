// The engine-independent part of an alternative block (§2.2): pre-spawn
// guards and the child's verdict, shared by both in-process engines and by
// RecoveryBlock::run_sequential. Each engine keeps its own mechanism:
//   * kVirtual (alt_virtual.cpp) — the cost model, the virtual-processor
//     schedule and virtual-time trace stamps;
//   * kPool (alt_pool.cpp) — admission, plan order, submit/revoke/prune on
//     the shared work-stealing scheduler, the at-most-once sync point, the
//     helping wait and the scrub-before-release order.
// Internal to mw_core; the public surface is core/alt.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/alt.hpp"
#include "core/alt_context.hpp"

namespace mw {

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

/// How a child's run ended, before any engine arbitration.
enum class Verdict { kSuccess, kFailed, kHung, kCancelled };

/// The child's side of the block: the in-child guard, the body, the at-sync
/// guard and the acceptance test, each per `guard_phases`. Every exception
/// — from a guard or `accept` as much as from the body, foreign ones (an
/// injected crash) included — becomes a verdict; none escapes.
Verdict run_child(const Alternative& alt, World& child, AltContext& ctx,
                  unsigned guard_phases);

/// The engines. Each returns with every spawned alternative in a terminal
/// status and the winner, if any, committed.
AltOutcome run_alternatives_virtual(Runtime& rt, World& parent,
                                    const std::vector<Alternative>& alts,
                                    const AltOptions& opts);

/// kPool: alternatives as tasks on the shared work-stealing SpecScheduler,
/// at most `pool.workers` running at once:
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
