#include "proc/process_table.hpp"

#include "util/check.hpp"

namespace mw {

ProcessTable::ProcessTable() = default;

ProcessRecord* ProcessTable::find(Pid pid) {
  if (pid == kNoPid || pid > records_.size()) return nullptr;
  return &records_[pid - 1];
}

const ProcessRecord* ProcessTable::find(Pid pid) const {
  return const_cast<ProcessTable*>(this)->find(pid);
}

Pid ProcessTable::create(Pid parent, std::uint64_t alt_group,
                         std::string label) {
  std::lock_guard<std::mutex> lk(mu_);
  ProcessRecord& rec = records_.emplace_back();
  rec.pid = static_cast<Pid>(records_.size());
  rec.parent = parent;
  rec.alt_group = alt_group;
  rec.label = std::move(label);
  if (ProcessRecord* p = find(parent)) p->children.push_back(rec.pid);
  return rec.pid;
}

ProcessRecord ProcessTable::get(Pid pid) const {
  std::lock_guard<std::mutex> lk(mu_);
  const ProcessRecord* rec = find(pid);
  MW_CHECK(rec != nullptr);
  return *rec;
}

bool ProcessTable::exists(Pid pid) const {
  std::lock_guard<std::mutex> lk(mu_);
  return find(pid) != nullptr;
}

ProcStatus ProcessTable::status(Pid pid) const {
  std::lock_guard<std::mutex> lk(mu_);
  const ProcessRecord* rec = find(pid);
  MW_CHECK(rec != nullptr);
  return rec->status;
}

bool ProcessTable::set_status(Pid pid, ProcStatus next) {
  ProcStatus old;
  std::vector<StatusListener> listeners;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ProcessRecord* rec = find(pid);
    MW_CHECK(rec != nullptr);
    old = rec->status;
    if (is_terminal(old)) return false;
    rec->status = next;
    listeners = listeners_;  // snapshot; invoke outside the lock
  }
  for (auto& fn : listeners) fn(pid, old, next);
  return true;
}

Completion ProcessTable::complete(Pid pid) const {
  return completion_of(status(pid));
}

void ProcessTable::set_label(Pid pid, std::string label) {
  std::lock_guard<std::mutex> lk(mu_);
  ProcessRecord* rec = find(pid);
  MW_CHECK(rec != nullptr);
  rec->label = std::move(label);
}

void ProcessTable::subscribe(StatusListener fn) {
  std::lock_guard<std::mutex> lk(mu_);
  listeners_.push_back(std::move(fn));
}

std::size_t ProcessTable::process_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return records_.size();
}

std::size_t ProcessTable::live_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t n = 0;
  for (const ProcessRecord& rec : records_)
    if (!is_terminal(rec.status)) ++n;
  return n;
}

std::vector<ProcessRecord> ProcessTable::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return std::vector<ProcessRecord>(records_.begin(), records_.end());
}

}  // namespace mw
