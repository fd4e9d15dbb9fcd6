// ProcessTable: the registry of speculative processes — pid allocation,
// parent/child links, status lifecycle, and status-change notification.
//
// Predicate resolution is event-driven: the predicated message layer and
// the Multiple Worlds runtime subscribe here, and react when a process
// reaches a terminal status ("we can update the value of these elements as
// processes change status ... much less frequently than they make memory
// references", §2.3).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "proc/status.hpp"
#include "util/ids.hpp"

namespace mw {

struct ProcessRecord {
  Pid pid = kNoPid;
  Pid parent = kNoPid;
  ProcStatus status = ProcStatus::kReady;
  std::uint64_t alt_group = 0;  // alt_spawn group id, 0 = none
  std::string label;            // diagnostic only
  std::vector<Pid> children;
};

class ProcessTable {
 public:
  using StatusListener =
      std::function<void(Pid, ProcStatus /*old*/, ProcStatus /*new*/)>;

  ProcessTable();

  /// Creates a process; pids are never reused within one table.
  Pid create(Pid parent, std::uint64_t alt_group = 0, std::string label = {});

  /// Snapshot of the record (by value: the live record may change), with
  /// children in creation order.
  ProcessRecord get(Pid pid) const;
  bool exists(Pid pid) const;

  ProcStatus status(Pid pid) const;

  /// Transitions `pid`; enforces that terminal states are never left.
  /// Returns false (no-op, no notification) if the process was already
  /// terminal — e.g. an elimination racing a self-initiated failure.
  bool set_status(Pid pid, ProcStatus next);

  /// The completion oracle complete(P) over live table state.
  Completion complete(Pid pid) const;

  /// Replaces a process's diagnostic label — how the supervision layer
  /// annotates a pid with its fate ("quarantined after N restarts").
  /// Labels are interned: equal labels are stored once per table.
  void set_label(Pid pid, std::string label);

  /// Registers a listener invoked (outside the table lock) after every
  /// successful status transition. Listeners cannot be removed — the
  /// subsystems that subscribe live as long as the table.
  void subscribe(StatusListener fn);

  std::size_t process_count() const;

  /// Number of processes currently in a non-terminal state.
  std::size_t live_count() const;

  /// Copy of every record, ordered by pid — the auditor's view.
  std::vector<ProcessRecord> snapshot() const;

  /// Distinct labels stored (diagnostic: interning at work).
  std::size_t label_count() const;

 private:
  /// What the table stores per pid: 32 bytes. Children are an intrusive
  /// list (first/last child, next sibling) and the label an index into the
  /// interned labels, so a record costs no allocation of its own.
  struct Entry {
    std::uint64_t alt_group = 0;
    Pid parent = kNoPid;
    Pid first_child = kNoPid;
    Pid last_child = kNoPid;
    Pid next_sibling = kNoPid;
    std::uint32_t label = 0;  // index into labels_
    ProcStatus status = ProcStatus::kReady;
  };
  static_assert(sizeof(Entry) == 32);

  /// The entry of `pid`, or null when no process has it.
  Entry* find(Pid pid);
  const Entry* find(Pid pid) const;
  /// `pid`'s record, rebuilt from its entry (children, label).
  ProcessRecord record(Pid pid, const Entry& e) const;
  /// The id of `label`, storing it on first use.
  std::uint32_t intern(std::string label);

  mutable std::mutex mu_;
  // Pids are dense from 1 and never reused, so pid p lives at index p - 1.
  // A deque grows without moving (or copying) the entries already stored.
  std::deque<Entry> entries_;
  // Interned labels; a deque keeps each string (and the views keying
  // label_ids_) in place as it grows.
  std::deque<std::string> labels_;
  std::unordered_map<std::string_view, std::uint32_t> label_ids_;
  std::vector<StatusListener> listeners_;
};

}  // namespace mw
