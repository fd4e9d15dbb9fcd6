#include "proc/process_table.hpp"

#include "util/check.hpp"

namespace mw {

ProcessTable::ProcessTable() = default;

ProcessTable::Entry* ProcessTable::find(Pid pid) {
  if (pid == kNoPid || pid > entries_.size()) return nullptr;
  return &entries_[pid - 1];
}

const ProcessTable::Entry* ProcessTable::find(Pid pid) const {
  return const_cast<ProcessTable*>(this)->find(pid);
}

std::uint32_t ProcessTable::intern(std::string label) {
  auto it = label_ids_.find(label);
  if (it != label_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(labels_.size());
  label_ids_.emplace(labels_.emplace_back(std::move(label)), id);
  return id;
}

ProcessRecord ProcessTable::record(Pid pid, const Entry& e) const {
  ProcessRecord rec;
  rec.pid = pid;
  rec.parent = e.parent;
  rec.status = e.status;
  rec.alt_group = e.alt_group;
  rec.label = labels_[e.label];
  for (Pid c = e.first_child; c != kNoPid; c = entries_[c - 1].next_sibling)
    rec.children.push_back(c);
  return rec;
}

Pid ProcessTable::create(Pid parent, std::uint64_t alt_group,
                         std::string label) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::uint32_t label_id = intern(std::move(label));
  Entry& e = entries_.emplace_back();
  const auto pid = static_cast<Pid>(entries_.size());
  e.parent = parent;
  e.alt_group = alt_group;
  e.label = label_id;
  if (Entry* p = find(parent)) {
    if (p->last_child == kNoPid) {
      p->first_child = pid;
    } else {
      entries_[p->last_child - 1].next_sibling = pid;
    }
    p->last_child = pid;
  }
  return pid;
}

ProcessRecord ProcessTable::get(Pid pid) const {
  std::lock_guard<std::mutex> lk(mu_);
  const Entry* e = find(pid);
  MW_CHECK(e != nullptr);
  return record(pid, *e);
}

bool ProcessTable::exists(Pid pid) const {
  std::lock_guard<std::mutex> lk(mu_);
  return find(pid) != nullptr;
}

ProcStatus ProcessTable::status(Pid pid) const {
  std::lock_guard<std::mutex> lk(mu_);
  const Entry* e = find(pid);
  MW_CHECK(e != nullptr);
  return e->status;
}

bool ProcessTable::set_status(Pid pid, ProcStatus next) {
  ProcStatus old;
  std::vector<StatusListener> listeners;
  {
    std::lock_guard<std::mutex> lk(mu_);
    Entry* e = find(pid);
    MW_CHECK(e != nullptr);
    old = e->status;
    if (is_terminal(old)) return false;
    e->status = next;
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
  Entry* e = find(pid);
  MW_CHECK(e != nullptr);
  e->label = intern(std::move(label));
}

void ProcessTable::subscribe(StatusListener fn) {
  std::lock_guard<std::mutex> lk(mu_);
  listeners_.push_back(std::move(fn));
}

std::size_t ProcessTable::process_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.size();
}

std::size_t ProcessTable::live_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t n = 0;
  for (const Entry& e : entries_)
    if (!is_terminal(e.status)) ++n;
  return n;
}

std::vector<ProcessRecord> ProcessTable::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<ProcessRecord> out;
  out.reserve(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i)
    out.push_back(record(static_cast<Pid>(i + 1), entries_[i]));
  return out;
}

std::size_t ProcessTable::label_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return labels_.size();
}

}  // namespace mw
