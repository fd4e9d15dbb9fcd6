#include "core/world.hpp"

#include "trace/trace.hpp"
#include "util/check.hpp"

namespace mw {

World::World(ProcessTable& table, std::size_t page_size,
             std::size_t num_pages, std::string label)
    : table_(&table),
      pid_(table.create(kNoPid, 0, std::move(label))),
      space_(page_size, num_pages) {
  table_->set_status(pid_, ProcStatus::kRunning);
}

World::World(ProcessTable& table, Pid pid, AddressSpace space,
             PredicateSet preds)
    : table_(&table), pid_(pid), space_(std::move(space)),
      preds_(std::move(preds)) {}

World World::fork_alternative(Pid self_pid,
                              const std::vector<Pid>& sibling_pids) {
  return alternative(self_pid, sibling_pids, false);
}

World World::fork_scoped_alternative(Pid self_pid,
                                     const std::vector<Pid>& sibling_pids) {
  return alternative(self_pid, sibling_pids, true);
}

World World::alternative(Pid self_pid, const std::vector<Pid>& sibling_pids,
                         bool scoped) {
  PredicateSet child_preds =
      PredicateSet::for_alternative(preds_, self_pid, sibling_pids);
  MW_TRACE_EVENT(trace::EventKind::kWorldFork, self_pid, pid_);
  return World(*table_, self_pid,
               scoped ? space_.fork_scoped() : space_.fork(),
               std::move(child_preds));
}

World World::clone_with_predicates(PredicateSet preds,
                                   std::string label) const {
  const Pid pid = table_->create(table_->get(pid_).parent, 0, std::move(label));
  table_->set_status(pid, ProcStatus::kRunning);
  MW_TRACE_EVENT(trace::EventKind::kWorldSplit, pid, pid_, 0,
                 table_->get(pid_).alt_group);
  return World(*table_, pid, space_.fork(), std::move(preds));
}

void World::commit_from(World&& child) {
  MW_CHECK(child.table_ == table_);
  MW_TRACE_EVENT(trace::EventKind::kWorldCommit, pid_, child.pid_);
  space_.adopt(std::move(child.space_));
  // The flow of control through the child "appears to have been seamless,
  // up to and including maintenance of the process id" — the parent keeps
  // its own pid; the child's assumptions about itself are now resolved and
  // do not transfer.
}

void World::rollback(const AddressSpace& snapshot) {
  MW_TRACE_EVENT(trace::EventKind::kWorldRollback, pid_);
  space_.adopt(snapshot.fork());
}

}  // namespace mw
