// The deterministic virtual-time backend for alternative blocks.
//
// Bodies execute serially on the calling thread, accounting virtual work
// through AltContext::work/compute; the recorded tasks are then laid out on
// the configured number of virtual processors (proc/vsched) and the
// overhead model (proc/cost_model) charges spawn, COW-copy, commit and
// elimination costs exactly where the paper's τ(overhead) analysis puts
// them. The result is bit-reproducible on any host.
#include <utility>

#include "core/alt_block.hpp"
#include "core/runtime.hpp"
#include "proc/vsched.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace mw {

namespace internal {

AltOutcome run_alternatives_virtual(Runtime& rt, World& parent,
                                    const std::vector<Alternative>& alts,
                                    const AltOptions& opts) {
  AltOutcome out;
  const auto [group, spawned] = begin_block(rt, parent, alts, opts, out);
  if (spawned.empty()) return out;

  const CostModel& cost = rt.config().cost;
  ProcessTable& table = rt.processes();

  // Phase 1: spawn. Fork costs are serial in the parent; child i becomes
  // ready only after the parent has forked children 0..i.
  std::vector<Pid> sibling_pids;
  sibling_pids.reserve(spawned.size());
  for (std::size_t i : spawned) {
    sibling_pids.push_back(table.create(parent.pid(), group, alts[i].name));
  }
  const std::size_t resident = parent.space().table().resident_pages();
  const VDuration fork_cost = cost.fork_cost(resident);
  std::vector<VTime> ready(spawned.size());
  for (std::size_t k = 0; k < spawned.size(); ++k) {
    out.overhead.setup += fork_cost;
    ready[k] = static_cast<VTime>(fork_cost) * static_cast<VTime>(k + 1);
  }

  // Phase 2: run each body to its sync/abort point, recording virtual work
  // and COW copying. Worlds are kept so the winner can be committed.
  struct Ran {
    World world;
    Bytes result;
    VDuration duration = 0;
    bool success = false;
    bool hung = false;
    std::uint64_t pages_copied = 0;
  };
  std::vector<Ran> ran;
  ran.reserve(spawned.size());

  for (std::size_t k = 0; k < spawned.size(); ++k) {
    const std::size_t i = spawned[k];
    const Alternative& alt = alts[i];
    // Page/world events emitted while this body runs carry the child's
    // ready time; the precise lifecycle events are emitted post-scheduling.
    MW_TRACE_SET_NOW(ready[k]);
    World child = parent.fork_alternative(sibling_pids[k], sibling_pids);
    table.set_status(sibling_pids[k], ProcStatus::kRunning);
    AltContext ctx(child, i + 1, rt.rng_for(group, i + 1), nullptr,
                   /*virtual_mode=*/true);
    const Verdict v = run_child(alt, child, ctx, opts.guard_phases);
    const std::uint64_t copied = child.space().table().stats().pages_copied;
    Ran r{std::move(child), ctx.result(),
          ctx.accounted_work() +
              cost.cow_copy_per_page * static_cast<VDuration>(copied),
          v == Verdict::kSuccess, v == Verdict::kHung, copied};
    out.alts[i].pages_copied = copied;
    out.overhead.copying +=
        cost.cow_copy_per_page * static_cast<VDuration>(copied);
    ran.push_back(std::move(r));
  }

  // Phase 3: schedule on the virtual processors. A hung alternative is a
  // task that provably outlives the block's deadline — the timeout path
  // fires exactly as it would against a real non-terminating child.
  const VDuration hang_duration =
      opts.timeout == kVTimeMax ? vt_sec(3600) : opts.timeout + 1;
  std::vector<VirtualTask> tasks(spawned.size());
  for (std::size_t k = 0; k < spawned.size(); ++k) {
    const VDuration dur =
        ran[k].hung ? std::max(ran[k].duration, hang_duration)
                    : ran[k].duration;
    tasks[k] = VirtualTask{sibling_pids[k], ready[k], dur, ran[k].success};
  }
  ScheduleOutcome sched =
      rt.config().sched == RuntimeConfig::Sched::kProcessorSharing
          ? ps_schedule(rt.config().processors, tasks)
          : list_schedule(rt.config().processors, tasks);

  const bool winner_in_time =
      sched.winner_index.has_value() && sched.winner_finish <= opts.timeout;

  // Phase 4: statuses, commit, elimination. Scheduling fixed every virtual
  // timestamp, so the lifecycle trace is emitted here with exact times.
  MW_TRACE_EVENT(trace::EventKind::kAltBlockBegin, parent.pid(), kNoPid,
                 group, spawned.size(), 0);
  for (std::size_t k = 0; k < spawned.size(); ++k) {
    MW_TRACE_EVENT(trace::EventKind::kAltSpawn, sibling_pids[k], parent.pid(),
                   group, spawned[k] + 1,
                   static_cast<VTime>(fork_cost) * static_cast<VTime>(k));
  }
  MW_TRACE_EVENT(trace::EventKind::kAltWait, parent.pid(), kNoPid, group, 0,
                 ready.back());
  for (std::size_t k = 0; k < spawned.size(); ++k) {
    const TaskSchedule& s = sched.tasks[k];
    if (!s.ran) continue;
    MW_TRACE_EVENT(trace::EventKind::kAltChildBegin, sibling_pids[k], kNoPid,
                   group, 0, s.start);
    MW_TRACE_EVENT(trace::EventKind::kAltChildEnd, sibling_pids[k], kNoPid,
                   group, ran[k].pages_copied, s.finish);
  }
  for (std::size_t k = 0; k < spawned.size(); ++k) {
    const std::size_t i = spawned[k];
    AltReport& rep = out.alts[i];
    const TaskSchedule& s = sched.tasks[k];
    rep.pid = sibling_pids[k];
    rep.ran = s.ran;
    rep.start = s.start;
    rep.finish = s.finish;
    rep.success = winner_in_time && sched.winner_index == k;
  }

  if (winner_in_time) {
    const std::size_t wk = *sched.winner_index;
    const std::size_t wi = spawned[wk];
    out.winner = wi;
    out.winner_name = alts[wi].name;
    out.result = std::move(ran[wk].result);

    // alt_wait rendezvous: absorb the child's changed pages.
    const std::size_t changed =
        ran[wk].world.space().table().diff(parent.space().table()).size();
    out.overhead.commit = cost.commit_cost(changed);
    table.set_status(sibling_pids[wk], ProcStatus::kSynced);
    MW_TRACE_EVENT(trace::EventKind::kAltSync, sibling_pids[wk], parent.pid(),
                   group, 0, sched.winner_finish);
    MW_TRACE_SET_NOW(sched.winner_finish + out.overhead.commit);
    parent.commit_from(std::move(ran[wk].world));

    // Eliminate the siblings. Issue costs always land on the parent;
    // synchronous elimination additionally waits for each termination.
    const std::size_t victims = spawned.size() - 1;
    out.overhead.elimination = cost.elimination_cost(
        victims, opts.elimination == Elimination::kSynchronous);
    for (std::size_t k = 0; k < spawned.size(); ++k) {
      if (k == wk) continue;
      // A sibling that aborted on its own (guard/body failure) before the
      // winner synchronized reached kFailed by itself; the rest are killed.
      if (!ran[k].success && sched.tasks[k].ran &&
          sched.tasks[k].finish <= sched.winner_finish) {
        table.set_status(sibling_pids[k], ProcStatus::kFailed);
        MW_TRACE_EVENT(trace::EventKind::kAltAbort, sibling_pids[k], kNoPid,
                       group, 0, sched.tasks[k].finish);
      } else {
        table.set_status(sibling_pids[k], ProcStatus::kEliminated);
        MW_TRACE_EVENT(trace::EventKind::kAltEliminate, sibling_pids[k],
                       kNoPid, group, 0,
                       sched.winner_finish + out.overhead.commit +
                           out.overhead.elimination);
      }
    }
    out.elapsed = sched.winner_finish + out.overhead.commit +
                  out.overhead.elimination;
    MW_TRACE_EVENT(trace::EventKind::kAltBlockEnd, parent.pid(), kNoPid,
                   group, 0, out.elapsed);
    return out;
  }

  // Failure: either every alternative aborted, or the parent timed out.
  out.failed = true;
  VTime last_finish = 0;
  for (const auto& s : sched.tasks) last_finish = std::max(last_finish, s.finish);
  if (!sched.winner_index.has_value() && last_finish <= opts.timeout) {
    // All aborted before the timeout; the parent learns of failure when the
    // last child does, and nothing is left to eliminate.
    out.failure = AltFailure::kAllFailed;
    out.elapsed = last_finish;
    for (std::size_t k = 0; k < spawned.size(); ++k) {
      table.set_status(sibling_pids[k], ProcStatus::kFailed);
      MW_TRACE_EVENT(trace::EventKind::kAltAbort, sibling_pids[k], kNoPid,
                     group, 0, sched.tasks[k].finish);
    }
  } else {
    // Timed out with children still running (or succeeding too late): the
    // parent returns from alt_wait, fails, and kills everything.
    out.failure = AltFailure::kTimeout;
    out.overhead.elimination = cost.elimination_cost(
        spawned.size(), opts.elimination == Elimination::kSynchronous);
    out.elapsed = opts.timeout + out.overhead.elimination;
    for (std::size_t k = 0; k < spawned.size(); ++k) {
      table.set_status(sibling_pids[k], ProcStatus::kEliminated);
      MW_TRACE_EVENT(trace::EventKind::kAltEliminate, sibling_pids[k], kNoPid,
                     group, 0, out.elapsed);
    }
  }
  MW_TRACE_EVENT(trace::EventKind::kAltBlockEnd, parent.pid(), kNoPid, group,
                 static_cast<std::uint64_t>(out.failure), out.elapsed);
  return out;
}

}  // namespace internal

}  // namespace mw
