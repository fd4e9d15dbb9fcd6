#include "core/alt_block.hpp"

#include "core/runtime.hpp"
#include "proc/process_table.hpp"
#include "trace/trace.hpp"

namespace mw {

namespace internal {

namespace {

// A guard that throws is a guard that failed.
bool guard_passes(const Alternative& alt, const World& w) {
  try {
    return alt.guard(w);
  } catch (...) {
    return false;
  }
}

}  // namespace

BlockStart begin_block(Runtime& rt, const World& parent,
                       const std::vector<Alternative>& alts,
                       const AltOptions& opts, AltOutcome& out) {
  const std::size_t n = alts.size();
  out.alts.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.alts[i].index = i + 1;
    out.alts[i].name = alts[i].name;
  }
  BlockStart start;
  if (n == 0) {
    out.failed = true;
    out.failure = AltFailure::kNoAlternatives;
    return start;
  }
  start.group = rt.next_alt_group();
  // Serial guard evaluation in the parent (§2.2 — improves throughput at
  // the expense of response time: rejected alternatives are never spawned,
  // but the checks serialize).
  for (std::size_t i = 0; i < n; ++i) {
    if ((opts.guard_phases & kGuardPreSpawn) && alts[i].guard &&
        !guard_passes(alts[i], parent)) {
      continue;
    }
    start.spawned.push_back(i);
    out.alts[i].spawned = true;
  }
  if (start.spawned.empty()) {
    out.failed = true;
    out.failure = AltFailure::kAllFailed;
  }
  return start;
}

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
    worlds.push_back(parent.fork_alternative(pids[k], pids));
    table.set_status(pids[k], ProcStatus::kRunning);
  }
  out.overhead.setup = static_cast<VDuration>(setup_clock.elapsed_us());
  return worlds;
}

Verdict run_child(const Alternative& alt, World& child, AltContext& ctx,
                  unsigned guard_phases) {
  try {
    if ((guard_phases & kGuardInChild) && alt.guard && !alt.guard(child))
      return Verdict::kFailed;
    alt.body(ctx);
    if ((guard_phases & kGuardAtSync) && alt.guard && !alt.guard(child))
      return Verdict::kFailed;
    if (alt.accept && !alt.accept(child)) return Verdict::kFailed;
    return Verdict::kSuccess;
  } catch (const CancelledError&) {
    return Verdict::kCancelled;
  } catch (const AltHung&) {
    // The body declared it will never finish (kVirtual models it as a task
    // outliving the deadline; elsewhere hang() degrades to this only with
    // no cancellation token).
    return Verdict::kHung;
  } catch (...) {
    // AltFailed, std::exception and foreign exceptions (e.g. an injected
    // crash) all fail the child instead of escaping the block.
    return Verdict::kFailed;
  }
}

End SyncPoint::arbitrate(Verdict v, std::size_t k) {
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

void SyncPoint::publish(std::size_t k, End end) {
  {
    std::lock_guard<std::mutex> lk(mu);
    ends[k] = end;
    if (end == End::kSynced) synced = static_cast<int>(k);
    ++terminal;
  }
  cv.notify_all();
}

void commit_winner(ProcessTable& table, World& parent, std::size_t wi,
                   Pid pid, World& winner, Bytes& result, AltOutcome& out) {
  out.winner = wi;
  out.winner_name = out.alts[wi].name;
  out.alts[wi].pages_copied = winner.space().table().stats().pages_copied;
  Stopwatch commit_clock;
  table.set_status(pid, ProcStatus::kSynced);
  out.result = std::move(result);
  parent.commit_from(std::move(winner));
  out.overhead.commit = static_cast<VDuration>(commit_clock.elapsed_us());
}

void settle(AltReport& rep, End end, bool won, Pid pid, const World* world,
            ProcessTable& table, std::uint64_t group, const Stopwatch& clock) {
  rep.pid = pid;
  rep.success = won;
  rep.ran = end != End::kRevoked && end != End::kFaulted;
  rep.revoked = end == End::kRevoked;
  if (world) rep.pages_copied = world->space().table().stats().pages_copied;
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
    case End::kPending:
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

}  // namespace internal

}  // namespace mw
