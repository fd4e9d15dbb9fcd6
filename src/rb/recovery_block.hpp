// Recovery blocks (§4.1, after Randell): "a recovery block is composed of
// several alternative methods of computing a result; the goal is to emulate
// the behavior of 'standby-spares' to tolerate faults in software. Since
// each alternative is guaranteed the same initial state, they can be
// executed concurrently."
//
//   ensure <acceptance test>
//   by     <primary alternate>
//   else by <alternate 2> ... else error
//
// Two execution strategies over the same block:
//  * run_sequential — classic standby spares: try alternates in order, each
//    against a fresh COW world; roll back on acceptance failure. Response
//    time accumulates across failed alternates.
//  * run_concurrent — the Multiple Worlds execution: all alternates race;
//    the first to pass the acceptance test commits. Recovery costs nothing
//    extra because "some alternative is already pursuing the recovery
//    strategy" (§5).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/alt.hpp"
#include "core/alt_context.hpp"
#include "core/runtime.hpp"

namespace mw {

struct RbResult {
  bool succeeded = false;
  /// Which alternate produced the accepted state (0 = primary).
  std::size_t alternate_used = 0;
  std::string alternate_name;
  /// Alternates whose acceptance test rejected (sequential: tried before
  /// the winner; concurrent: observed failures).
  int rejected = 0;
  /// Virtual ticks (virtual backend) / microseconds (kPool).
  VDuration elapsed = 0;
};

class RecoveryBlock {
 public:
  /// `acceptance` is the ensure-clause: it judges the candidate world.
  RecoveryBlock(std::string name, std::function<bool(const World&)> acceptance)
      : name_(std::move(name)), acceptance_(std::move(acceptance)) {}

  /// Adds an alternate; the first added is the primary.
  RecoveryBlock& ensure_by(std::string name,
                           std::function<void(AltContext&)> body);

  std::size_t alternate_count() const { return alternates_.size(); }
  const std::string& name() const { return name_; }

  /// Standby-spares execution. On success the winning alternate's state is
  /// committed into `world`; on total failure `world` is untouched.
  RbResult run_sequential(Runtime& rt, World& world) const;

  /// Multiple Worlds execution: one speculative world per alternate, first
  /// acceptance-passing sync wins.
  RbResult run_concurrent(Runtime& rt, World& world,
                          const AltOptions& opts = {}) const;

 private:
  std::string name_;
  std::function<bool(const World&)> acceptance_;
  /// Both strategies run the same list: each body declares its fault point
  /// first, and the ensure-clause is its acceptance test.
  std::vector<Alternative> alternates_;
};

/// Deterministic fault injection for testing and benches: decides whether
/// invocation k of a component "fails".
class FaultPlan {
 public:
  /// Fails the first n invocations (then recovers) — a warming bug.
  static FaultPlan fail_first(int n);
  /// Fails every invocation — a hard fault.
  static FaultPlan always();
  /// Fails invocation k when (k * a + b) mod m == 0 — periodic flakiness.
  static FaultPlan periodic(int period, int phase = 0);
  /// Never fails.
  static FaultPlan none();

  /// Consumes one invocation; true = this invocation fails.
  bool next_fails();

  int invocations() const { return count_; }

 private:
  enum class Kind { kNone, kFirst, kAlways, kPeriodic };
  Kind kind_ = Kind::kNone;
  int n_ = 0;
  int period_ = 1;
  int phase_ = 0;
  int count_ = 0;
};

}  // namespace mw
