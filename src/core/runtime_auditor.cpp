#include "core/runtime_auditor.hpp"

#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "pagestore/page.hpp"
#include "pagestore/page_pool.hpp"

namespace mw {

std::string AuditReport::to_string() const {
  std::ostringstream os;
  if (clean()) {
    os << "audit: clean";
  } else {
    os << "audit: " << violations.size() << " violation(s)";
    for (const auto& v : violations) os << "\n  - " << v;
  }
  for (const auto& n : notes) os << "\n  (note) " << n;
  return os.str();
}

RuntimeAuditor::RuntimeAuditor()
    : baseline_pages_(Page::live_instances()) {}

void RuntimeAuditor::add_world(const World& w) { worlds_.push_back(&w); }

void RuntimeAuditor::add_table(const PageTable& t) { tables_.push_back(&t); }

AuditReport RuntimeAuditor::run(const ProcessTable& table) const {
  AuditReport report;

  std::unordered_set<Pid> accounted;
  for (const World* w : worlds_) accounted.insert(w->pid());

  // Orphans: a pid still marked live that no registered world answers for.
  // Every child of an alternative block must end Synced, Failed or
  // Eliminated — anything else is a process the runtime lost track of.
  for (const ProcessRecord& rec : table.snapshot()) {
    if (is_terminal(rec.status)) continue;
    if (accounted.count(rec.pid)) continue;
    report.orphan_processes.push_back(rec.pid);
    std::ostringstream os;
    os << "orphan process: pid " << rec.pid << " (" << rec.label << ") still "
       << mw::to_string(rec.status) << " with no live world";
    report.violations.push_back(os.str());
  }

  // Unresolved splits: a live world still predicated on siblings that have
  // long since been decided. Certainty must be restored before the world
  // may touch sources (§2.4.2).
  for (const World* w : worlds_) {
    if (table.exists(w->pid()) && is_terminal(table.status(w->pid())))
      continue;
    if (w->certain()) continue;
    report.unresolved_splits.push_back(w->pid());
    std::ostringstream os;
    os << "unresolved split: world pid " << w->pid() << " holds "
       << w->predicates().size() << " unresolved predicate(s)";
    report.violations.push_back(os.str());
  }

  // Leaks: pages alive beyond the baseline that nothing registered reaches.
  // collect_pages walks each table's radix tree; identical shared subtrees
  // still insert each distinct Page exactly once via the set.
  std::unordered_set<const Page*> reachable;
  for (const World* w : worlds_)
    w->space().table().collect_pages(reachable);
  for (const PageTable* t : tables_) t->collect_pages(reachable);
  const PagePool& pool = PagePool::global();
  report.pooled_frames = static_cast<std::int64_t>(pool.frames_held());
  report.pooled_frames_per_shard.reserve(pool.shard_count());
  for (std::size_t s = 0; s < pool.shard_count(); ++s)
    report.pooled_frames_per_shard.push_back(
        static_cast<std::int64_t>(pool.shard_frames_held(s)));
  const std::int64_t live = Page::live_instances();
  report.leaked_pages =
      live - baseline_pages_ - static_cast<std::int64_t>(reachable.size());
  if (report.leaked_pages > 0) {
    std::ostringstream os;
    os << "leaked pages: " << report.leaked_pages << " live Page instance(s) ("
       << live << " total, " << baseline_pages_ << " baseline, "
       << reachable.size() << " reachable)";
    report.violations.push_back(os.str());
  }

  return report;
}

AuditReport RuntimeAuditor::run(const ProcessTable& table,
                                const std::vector<trace::TraceEvent>& events,
                                std::uint64_t dropped) const {
  AuditReport report = run(table);
  report.trace_events = events.size();
  if (dropped > 0) {
    report.notes.push_back(
        "trace cross-check skipped: " + std::to_string(dropped) +
        " event(s) dropped by full rings; the stream is incomplete");
    return report;
  }
  report.trace_checked = true;

  // Reconstruct the trace's view: who was spawned into which group, and
  // each world's final traced fate (the last fate event wins — a loser of
  // the at-most-once race can legitimately overwrite nothing else).
  std::unordered_map<Pid, trace::TraceEvent> spawn_of;
  std::unordered_map<Pid, trace::EventKind> fate_of;
  std::unordered_map<std::uint64_t, std::size_t> group_spawns;
  for (const trace::TraceEvent& e : events) {
    switch (e.kind) {
      case trace::EventKind::kAltSpawn:
        spawn_of[e.pid] = e;
        ++group_spawns[e.a];
        break;
      case trace::EventKind::kAltSync:
      case trace::EventKind::kAltEliminate:
      case trace::EventKind::kAltAbort:
        fate_of[e.pid] = e.kind;
        break;
      default: break;
    }
  }

  auto mismatch = [&report](const std::string& what) {
    report.violations.push_back("trace mismatch: " + what);
  };

  // Groups with a retired member: the table keeps only the member's
  // status, so its group count can no longer be checked.
  std::unordered_set<std::uint64_t> retired_groups;
  for (const auto& [pid, e] : spawn_of) {
    if (!table.exists(pid)) {
      mismatch("traced spawn of pid " + std::to_string(pid) +
               " unknown to the process table");
      continue;
    }
    if (table.has_record(pid)) {
      const ProcessRecord rec = table.get(pid);
      if (rec.alt_group != e.a)
        mismatch("pid " + std::to_string(pid) + " traced in group " +
                 std::to_string(e.a) + " but tabled in group " +
                 std::to_string(rec.alt_group));
      if (e.other != kNoPid && rec.parent != e.other)
        mismatch("pid " + std::to_string(pid) + " traced parent " +
                 std::to_string(e.other) + " but tabled parent " +
                 std::to_string(rec.parent));
    } else {
      retired_groups.insert(e.a);
    }
    const auto fit = fate_of.find(pid);
    if (fit == fate_of.end()) continue;  // still racing at snapshot time
    ProcStatus expected = ProcStatus::kSynced;
    switch (fit->second) {
      case trace::EventKind::kAltSync: expected = ProcStatus::kSynced; break;
      case trace::EventKind::kAltEliminate:
        expected = ProcStatus::kEliminated;
        break;
      default: expected = ProcStatus::kFailed; break;
    }
    if (table.status(pid) != expected)
      mismatch("pid " + std::to_string(pid) + " traced fate " +
               trace::kind_name(fit->second) + " but tabled status " +
               mw::to_string(table.status(pid)));
  }

  // World counts per race: the table must hold exactly as many members of
  // each traced alt group as the trace saw spawned.
  std::unordered_map<std::uint64_t, std::size_t> group_tabled;
  for (const ProcessRecord& rec : table.snapshot())
    if (rec.alt_group != 0) ++group_tabled[rec.alt_group];
  for (const auto& [group, traced] : group_spawns) {
    if (retired_groups.count(group)) continue;
    const auto git = group_tabled.find(group);
    const std::size_t tabled = git == group_tabled.end() ? 0 : git->second;
    if (tabled != traced)
      mismatch("alt group " + std::to_string(group) + " spawned " +
               std::to_string(traced) + " world(s) in the trace but holds " +
               std::to_string(tabled) + " in the process table");
  }

  return report;
}

}  // namespace mw
