// ProcessTable: the registry of speculative processes — pid allocation,
// parent/child links, status lifecycle, and status-change notification.
//
// Predicate resolution is event-driven: the predicated message layer and
// the Multiple Worlds runtime subscribe here, and react when a process
// reaches a terminal status ("we can update the value of these elements as
// processes change status ... much less frequently than they make memory
// references", §2.3).
//
// Retirement bounds the table. Every pid keeps a 1-byte status forever, so
// status(), complete() and exists() answer for any pid ever created, and
// pids are never reused. The full record (parent, group, label, children)
// is kept for every live pid, for the newest kRecordWindow pids, and for
// every pid nobody retired. run_alternatives retires a block's children
// once it has recorded the outcome; a retired terminal pid that leaves the
// window loses its record, leaves its parent's child list, and its storage
// is freed a chunk at a time.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
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

  /// Full records are kept for at least the newest this many pids.
  static constexpr Pid kRecordWindow = Pid{1} << 16;

  ProcessTable();

  /// Creates a process; pids are never reused within one table.
  Pid create(Pid parent, std::uint64_t alt_group = 0, std::string label = {});

  /// Snapshot of the record (by value: the live record may change), with
  /// children in creation order. Requires has_record(pid).
  ProcessRecord get(Pid pid) const;
  /// True for every pid this table ever created, retired or not.
  bool exists(Pid pid) const;
  /// True while the full record of `pid` is held (see retire()).
  bool has_record(Pid pid) const;

  ProcStatus status(Pid pid) const;

  /// Transitions `pid`; enforces that terminal states are never left.
  /// Returns false (no-op, no notification) if the process was already
  /// terminal — e.g. an elimination racing a self-initiated failure.
  bool set_status(Pid pid, ProcStatus next);

  /// The completion oracle complete(P) over live table state.
  Completion complete(Pid pid) const;

  /// Replaces a process's diagnostic label — how the supervision layer
  /// annotates a pid with its fate ("quarantined after N restarts").
  /// Labels are interned: equal labels are stored once per table. A no-op
  /// once the record is retired.
  void set_label(Pid pid, std::string label);

  /// Marks the terminal pids among `pids` as settled: each loses its full
  /// record once it is older than the newest kRecordWindow pids (at once,
  /// if it already is). Live pids are kept as they are.
  void retire(std::span<const Pid> pids);

  /// Registers a listener invoked (outside the table lock) after every
  /// successful status transition. Listeners cannot be removed — the
  /// subsystems that subscribe live as long as the table.
  void subscribe(StatusListener fn);

  /// Number of pids ever created (retired ones included).
  std::size_t process_count() const;

  /// Number of full records held: at most kRecordWindow plus the live and
  /// never-retired pids older than the window.
  std::size_t record_count() const;

  /// Number of processes currently in a non-terminal state.
  std::size_t live_count() const;

  /// Copy of every held record, ordered by pid — the auditor's view.
  std::vector<ProcessRecord> snapshot() const;

  /// Distinct labels stored (diagnostic: interning at work).
  std::size_t label_count() const;

 private:
  /// A held record: 32 bytes. Children are an intrusive list (first/last
  /// child, next sibling) and the label an index into the interned labels,
  /// so a record costs no allocation of its own. The status lives apart,
  /// in `status_`, because it outlives the record.
  struct Entry {
    std::uint64_t alt_group = 0;
    Pid parent = kNoPid;
    Pid first_child = kNoPid;
    Pid last_child = kNoPid;
    Pid next_sibling = kNoPid;
    std::uint32_t label = 0;  // index into labels_
    bool retired = false;     // settled: dropped once out of the window
    bool dropped = false;     // record gone; only the status is left
  };
  static_assert(sizeof(Entry) == 32);

  /// Records of pids [c * kChunk + 1, (c + 1) * kChunk], freed once every
  /// one of them is dropped.
  static constexpr std::size_t kChunk = 1024;
  struct Chunk {
    std::array<Entry, kChunk> entries;
    std::size_t held = 0;
  };

  /// True when this table handed out `pid`.
  bool created(Pid pid) const;
  /// The held record of `pid`, or null when it has none.
  Entry* find(Pid pid);
  const Entry* find(Pid pid) const;
  /// `pid`'s record, rebuilt from its entry (children, label).
  ProcessRecord record(Pid pid, const Entry& e) const;
  /// The id of `label`, storing it on first use.
  std::uint32_t intern(std::string label);
  /// Unlinks retired `pid` from its parent and releases its record.
  void drop(Pid pid, Entry& e);

  mutable std::mutex mu_;
  // Pids are dense from 1 and never reused, so pid p's status lives at
  // index p - 1 and its record in chunk (p - 1) / kChunk. Deques grow
  // without moving what they already hold.
  std::deque<ProcStatus> status_;
  std::deque<std::unique_ptr<Chunk>> chunks_;
  std::size_t records_ = 0;
  // Interned labels; a deque keeps each string (and the views keying
  // label_ids_) in place as it grows.
  std::deque<std::string> labels_;
  std::unordered_map<std::string_view, std::uint32_t> label_ids_;
  std::vector<StatusListener> listeners_;
};

}  // namespace mw
