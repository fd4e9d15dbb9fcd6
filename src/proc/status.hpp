// Process status lifecycle and the tri-state completion oracle (§2.4.2).
#pragma once

#include <cstdint>

namespace mw {

/// Status of a speculative process. Transitions:
///   Ready -> Running -> {Blocked <-> Running, Synced, Failed, Eliminated}
/// Synced, Failed and Eliminated are terminal. One byte: the process table
/// keeps a status for every pid it ever created.
enum class ProcStatus : std::uint8_t {
  kReady,       // spawned, not yet scheduled
  kRunning,     // executing
  kBlocked,     // waiting (message receive, source access, alt_wait)
  kSynced,      // won its alternative block: successfully synchronized
  kFailed,      // guard unsatisfied / aborted / timed out
  kEliminated,  // killed as a losing sibling or a doomed world copy
};

inline bool is_terminal(ProcStatus s) {
  return s == ProcStatus::kSynced || s == ProcStatus::kFailed ||
         s == ProcStatus::kEliminated;
}

/// The paper's complete(P): TRUE when P successfully synchronizes with its
/// parent; FALSE when P failed or was eliminated; otherwise indeterminate.
enum class Completion { kTrue, kFalse, kIndeterminate };

inline Completion completion_of(ProcStatus s) {
  switch (s) {
    case ProcStatus::kSynced:
      return Completion::kTrue;
    case ProcStatus::kFailed:
    case ProcStatus::kEliminated:
      return Completion::kFalse;
    default:
      return Completion::kIndeterminate;
  }
}

inline const char* to_string(ProcStatus s) {
  switch (s) {
    case ProcStatus::kReady:
      return "ready";
    case ProcStatus::kRunning:
      return "running";
    case ProcStatus::kBlocked:
      return "blocked";
    case ProcStatus::kSynced:
      return "synced";
    case ProcStatus::kFailed:
      return "failed";
    case ProcStatus::kEliminated:
      return "eliminated";
  }
  return "?";
}

}  // namespace mw
