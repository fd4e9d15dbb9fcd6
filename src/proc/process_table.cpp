#include "proc/process_table.hpp"

#include "util/check.hpp"

namespace mw {

ProcessTable::ProcessTable() = default;

bool ProcessTable::created(Pid pid) const {
  return pid != kNoPid && pid <= status_.size();
}

ProcessTable::Entry* ProcessTable::find(Pid pid) {
  if (!created(pid)) return nullptr;
  Chunk* c = chunks_[(pid - 1) / kChunk].get();
  if (c == nullptr) return nullptr;
  Entry& e = c->entries[(pid - 1) % kChunk];
  return e.dropped ? nullptr : &e;
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
  rec.status = status_[pid - 1];
  rec.alt_group = e.alt_group;
  rec.label = labels_[e.label];
  for (Pid c = e.first_child; c != kNoPid; c = find(c)->next_sibling)
    rec.children.push_back(c);
  return rec;
}

void ProcessTable::drop(Pid pid, Entry& e) {
  // A held parent's list holds only held pids, and older children were
  // dropped first, so a retired child is usually at its front. A parent
  // created after its child never listed it.
  if (Entry* p = find(e.parent)) {
    Pid prev = kNoPid;
    Pid c = p->first_child;
    for (; c != kNoPid && c != pid; c = find(c)->next_sibling) prev = c;
    if (c == pid) {
      if (prev == kNoPid) {
        p->first_child = e.next_sibling;
      } else {
        find(prev)->next_sibling = e.next_sibling;
      }
      if (p->last_child == pid) p->last_child = prev;
    }
  }
  e.dropped = true;
  --records_;
  std::unique_ptr<Chunk>& chunk = chunks_[(pid - 1) / kChunk];
  if (--chunk->held == 0) chunk.reset();
}

Pid ProcessTable::create(Pid parent, std::uint64_t alt_group,
                         std::string label) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::uint32_t label_id = intern(std::move(label));
  status_.push_back(ProcStatus::kReady);
  const auto pid = static_cast<Pid>(status_.size());
  if ((pid - 1) % kChunk == 0) chunks_.push_back(std::make_unique<Chunk>());
  Chunk& chunk = *chunks_.back();
  Entry& e = chunk.entries[(pid - 1) % kChunk];
  ++chunk.held;
  ++records_;
  e.parent = parent;
  e.alt_group = alt_group;
  e.label = label_id;
  if (Entry* p = find(parent)) {
    if (p->last_child == kNoPid) {
      p->first_child = pid;
    } else {
      find(p->last_child)->next_sibling = pid;
    }
    p->last_child = pid;
  }
  // The pid leaving the window loses its record if it was retired.
  if (pid > kRecordWindow) {
    const Pid old = pid - kRecordWindow;
    if (Entry* o = find(old); o != nullptr && o->retired) drop(old, *o);
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
  return created(pid);
}

bool ProcessTable::has_record(Pid pid) const {
  std::lock_guard<std::mutex> lk(mu_);
  return find(pid) != nullptr;
}

ProcStatus ProcessTable::status(Pid pid) const {
  std::lock_guard<std::mutex> lk(mu_);
  MW_CHECK(created(pid));
  return status_[pid - 1];
}

bool ProcessTable::set_status(Pid pid, ProcStatus next) {
  ProcStatus old;
  std::vector<StatusListener> listeners;
  {
    std::lock_guard<std::mutex> lk(mu_);
    MW_CHECK(created(pid));
    ProcStatus& s = status_[pid - 1];
    old = s;
    if (is_terminal(old)) return false;
    s = next;
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
  MW_CHECK(created(pid));
  if (Entry* e = find(pid)) e->label = intern(std::move(label));
}

void ProcessTable::retire(std::span<const Pid> pids) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const Pid pid : pids) {
    Entry* e = find(pid);
    if (e == nullptr || !is_terminal(status_[pid - 1])) continue;
    e->retired = true;
    if (std::size_t{pid} + kRecordWindow <= status_.size()) drop(pid, *e);
  }
}

void ProcessTable::subscribe(StatusListener fn) {
  std::lock_guard<std::mutex> lk(mu_);
  listeners_.push_back(std::move(fn));
}

std::size_t ProcessTable::process_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return status_.size();
}

std::size_t ProcessTable::record_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return records_;
}

std::size_t ProcessTable::live_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t n = 0;
  for (const ProcStatus s : status_)
    if (!is_terminal(s)) ++n;
  return n;
}

std::vector<ProcessRecord> ProcessTable::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<ProcessRecord> out;
  out.reserve(records_);
  for (Pid pid = 1; pid <= status_.size(); ++pid)
    if (const Entry* e = find(pid)) out.push_back(record(pid, *e));
  return out;
}

std::size_t ProcessTable::label_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return labels_.size();
}

}  // namespace mw
