// Alternative blocks: the paper's alt_spawn / alt_wait construct (§2.2) as
// a structured C++ API. A block is a set of mutually exclusive alternative
// methods; running it spawns one speculative world per alternative,
// synchronizes with the first to succeed, commits that world's state into
// the parent, and eliminates the rest. If no alternative succeeds within
// the timeout, the failure alternative is selected (§1.1: its conditional
// probability is 1 exactly when all others fail).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/world.hpp"
#include "util/bytes.hpp"
#include "util/vtime.hpp"

namespace mw {

class AltContext;

/// Where guard conditions are evaluated (§2.2: "serially before spawning
/// the alternatives ...; in the child process; at the synchronization
/// point; or at any combination of these places, for redundancy").
enum GuardPhase : unsigned {
  kGuardPreSpawn = 1u << 0,
  kGuardInChild = 1u << 1,
  kGuardAtSync = 1u << 2,
};

/// How losing siblings are eliminated (§2.2.1). Asynchronous elimination
/// gives better execution time at the expense of throughput. On kPool
/// elimination is cooperative: a running loser unwinds at its next
/// checkpoint, and the block commits the winner only after every sibling
/// has ended, in either mode (the siblings borrow the parent's pages until
/// then); the mode decides only whether the elimination overhead includes
/// that wait. A loser that never checkpoints delays the commit until it
/// finishes; alternatives that must be killable without cooperation belong
/// on PosixAltBlock (core/alt_posix.hpp), which SIGKILLs the losers.
enum class Elimination { kSynchronous, kAsynchronous };

/// Which in-process engine executes the block.
///  * kVirtual — deterministic discrete-event backend: bodies run serially,
///    accounting work in ticks; a virtual-processor scheduler decides the
///    winner. Reproducible on any host; the reference engine.
///  * kPool — wall-clock backend: alternatives are tasks on a shared
///    work-stealing pool (`pool.workers` workers; 0 = one per hardware
///    thread) with bounded admission and cancellation-aware pruning —
///    queued losers are revoked before they ever run. See
///    core/spec_scheduler.hpp. At most `pool.workers` alternatives run at
///    once: one that blocks holds its worker, and a winner queued behind
///    blocked workers ends the block at its timeout rather than wedging
///    it. Alternatives that must be OS-scheduled whatever the core count
///    belong on PosixAltBlock, which forks a process per alternative.
enum class AltBackend { kVirtual, kPool };

struct Alternative {
  std::string name;
  /// Precondition; evaluated per the guard-phase mask. Null = always true.
  std::function<bool(const World&)> guard;
  /// The alternative's computation, run in its own speculative world.
  std::function<void(AltContext&)> body;
  /// Acceptance test over the child's final state, evaluated at the sync
  /// point. Null = accept.
  std::function<bool(const World&)> accept;
  /// Scheduling hint: estimated success probability / preference. The pool
  /// backend runs high-priority alternatives first locally and steals
  /// low-priority ones last; other backends ignore it.
  double priority = 0.0;
};

struct AltOptions {
  /// Parent's alt_wait timeout. In the virtual backend this is virtual
  /// ticks; on kPool, microseconds of wall time. kVTimeMax waits forever.
  /// Choose "a value clearly unacceptable to the application" (§2.2). On
  /// kPool the deadline also bounds a block whose winner is queued behind
  /// workers held by blocked siblings: it fails with kTimeout.
  VDuration timeout = kVTimeMax;
  Elimination elimination = Elimination::kAsynchronous;
  unsigned guard_phases = kGuardInChild;
};

/// τ(overhead) decomposition (§3.3): (1) setting up the worlds, (2)
/// run-time COW copying, (3) completion: commit plus sibling elimination.
struct OverheadBreakdown {
  VDuration setup = 0;
  VDuration copying = 0;
  VDuration commit = 0;
  VDuration elimination = 0;
  VDuration total() const { return setup + copying + commit + elimination; }
};

/// Per-alternative post-mortem.
struct AltReport {
  std::size_t index = 0;  // 1-based, matching alt_spawn's return value
  std::string name;
  Pid pid = kNoPid;
  bool spawned = false;  // false if a pre-spawn guard rejected it
  bool ran = false;      // started before the winner synchronized
  bool success = false;  // reached a successful sync
  /// Pool backend: pruned from the queue before its body ever ran (its
  /// world copied zero pages). Implies !ran.
  bool revoked = false;
  /// The program's priority hint favoured it (led_position): the policy
  /// learns a led alternative's win rate apart from its siblings'.
  bool led = false;
  VTime start = 0;
  VTime finish = 0;
  std::uint64_t pages_copied = 0;  // COW breaks in its world
};

/// The position the program's priority hint favours: the one whose priority
/// is strictly above every sibling's. A race with a tied top priority, or
/// with fewer than two alternatives, has none. `priority` projects an
/// element to its priority (a member pointer or a callable).
template <typename Seq, typename Proj = std::identity>
std::optional<std::size_t> led_position(const Seq& seq, Proj priority = {}) {
  if (seq.size() < 2) return std::nullopt;
  std::size_t top = 0;
  bool tied = false;
  for (std::size_t i = 1; i < seq.size(); ++i) {
    const double p = std::invoke(priority, seq[i]);
    const double t = std::invoke(priority, seq[top]);
    if (p > t) {
      top = i;
      tied = false;
    } else if (p == t) {
      tied = true;
    }
  }
  if (tied) return std::nullopt;
  return top;
}

enum class AltFailure {
  kNone,
  kAllFailed,
  kTimeout,
  kNoAlternatives,
  /// Pool backend: the admission controller could not fit this race within
  /// the speculation budget (live worlds / resident pages) before the
  /// admission deadline; nothing was spawned.
  kAdmissionRejected,
};

struct AltOutcome {
  bool failed = false;
  AltFailure failure = AltFailure::kNone;
  std::optional<std::size_t> winner;  // 0-based index into the input vector
  std::string winner_name;
  /// Block execution time as seen by the parent: ticks (virtual) or
  /// microseconds (kPool).
  VDuration elapsed = 0;
  OverheadBreakdown overhead;
  /// Result bytes the winner published via AltContext::set_result.
  Bytes result;
  std::vector<AltReport> alts;
};

class Runtime;

/// Runs a block of alternatives against `parent`. On success the winning
/// world's pages are committed into `parent` before this returns.
AltOutcome run_alternatives(Runtime& rt, World& parent,
                            const std::vector<Alternative>& alts,
                            const AltOptions& opts = {});

/// Fluent builder for alternative blocks.
class AltBlock {
 public:
  AltBlock(Runtime& rt, World& parent) : rt_(rt), parent_(parent) {}

  AltBlock& alt(std::string name, std::function<void(AltContext&)> body) {
    alts_.push_back({std::move(name), nullptr, std::move(body), nullptr});
    return *this;
  }
  AltBlock& alt(Alternative a) {
    alts_.push_back(std::move(a));
    return *this;
  }
  AltBlock& timeout(VDuration t) {
    opts_.timeout = t;
    return *this;
  }
  AltBlock& elimination(Elimination e) {
    opts_.elimination = e;
    return *this;
  }
  AltBlock& guard_phases(unsigned mask) {
    opts_.guard_phases = mask;
    return *this;
  }

  AltOutcome run() { return run_alternatives(rt_, parent_, alts_, opts_); }

 private:
  Runtime& rt_;
  World& parent_;
  std::vector<Alternative> alts_;
  AltOptions opts_;
};

}  // namespace mw
