// Speculation policy engine. The base paper fixes the order and priority of
// alternatives ahead of time. The or-parallel splitting-strategies
// literature (PAPERS.md, arXiv:1301.7690) shows no single static choice
// dominates across workload shapes, so this engine learns two decisions
// from race outcomes (per-alternative win rate and the wasted-work ratio):
//
//   (a) race order — each position's historical win rate is added to its
//       base priority and the race is submitted hottest first, so the
//       likely winner starts right after the hinted alternative. A
//       position's rate is learned in two parts: over the races whose
//       hint favoured it (it was led) and over all others. The led
//       position is scored by its led rate and every sibling by its unled
//       rate, so a hint that is usually right does not lift its position
//       when another one leads. The last-ranked position still runs; it
//       sits at the cold end of the deque, where the winner's revocation
//       usually prunes it unrun at zero pages copied;
//   (b) the or-parallel split veto — a choice point is searched
//       sequentially instead of split into speculative worlds while the
//       windowed wasted-work ratio stays above `waste_high`.
//
// Determinism contract: every decision is a pure function of
// (PolicyConfig, PolicySnapshot) plus, for the split veto, the split step.
// There is no randomness. kStatic mode short-circuits each decision to its
// pass-through value without touching the state or the trace stream.
//
// Default mode per engine: PolicyConfig's default is kAuto, which the owner
// resolves. Runtime makes it kAdaptive on the wall-clock kPool (no
// deterministic_seed), where the learned per-position ranking starts the
// likely winner right after the hinted alternative, and kStatic on every
// replayable engine (kVirtual, deterministic kPool), whose seed digests and
// goldens stay bit-for-bit. A bare SpecPolicy has no owner to resolve it and
// plans statically. An explicit kStatic or kAdaptive is kept as given.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "core/alt.hpp"

namespace mw {

enum class PolicyMode {
  /// Pass-through: every decision returns its static input unchanged.
  kStatic,
  /// Closed-loop: decisions derive from the observed snapshot.
  kAdaptive,
  /// Unresolved default: the owner picks kStatic or kAdaptive (see the
  /// determinism paragraph above). No decision ever sees it.
  kAuto,
};

struct PolicyConfig {
  PolicyMode mode = PolicyMode::kAuto;
  /// Win-rate window: every `win_window` observed races the per-position
  /// win/spawn counters are halved (exponential decay), so bursty workloads
  /// whose winner migrates do not fight stale history forever.
  std::uint64_t win_window = 32;
  /// Races to observe before the split veto may engage.
  std::uint64_t min_races = 8;
  /// Split veto threshold on the windowed wasted-work ratio.
  double waste_high = 0.5;
};

/// Per-position (index into the submitted alternative vector) outcome
/// history. Positions are the learning key: repeated races submitted by the
/// same program site keep their alternatives in a stable order. Each
/// position keeps two counts: races in which the program's hint favoured
/// it (led, see led_position) and all other races, so the hinted
/// alternative's wins do not inflate its rate when a sibling leads. The
/// counts are doubles: the win_window halving keeps small counts.
struct PolicyAltStat {
  double spawned = 0;
  double wins = 0;
  double led_spawned = 0;
  double led_wins = 0;
  /// Optimistic initialisation: an unsampled position scores 1.0 so it is
  /// tried before history accumulates.
  double win_rate() const { return spawned == 0 ? 1.0 : wins / spawned; }
  double led_win_rate() const {
    return led_spawned == 0 ? 1.0 : led_wins / led_spawned;
  }
};

/// Immutable view of the accumulated signals; decisions are pure functions
/// of a snapshot (plus config).
struct PolicySnapshot {
  std::uint64_t races = 0;
  /// Windowed work accounting (decayed with the win counters).
  double work_total = 0.0;
  double work_wasted = 0.0;
  std::vector<PolicyAltStat> alts;

  double wasted_ratio() const {
    return work_total <= 0.0 ? 0.0 : work_wasted / work_total;
  }
};

/// A race plan: effective priorities for each submitted position.
struct PolicyPlan {
  std::vector<double> priority;
  /// Submission order, hottest first: a permutation of the input positions
  /// sorted by effective priority (descending, ties in input order). The
  /// dispatch paths submit in this order so the ranking bites even when
  /// workers start popping before the whole race is enqueued. Static mode
  /// returns the identity permutation — submission order unchanged.
  std::vector<std::size_t> order;
  /// Position ranked first (the predicted winner).
  std::size_t top = 0;
  /// Position ranked last (the "deferred" alternative: still submitted, but
  /// coldest in the deque and most likely revoked unrun).
  std::size_t deferred = 0;
};

struct PolicyStats {
  std::uint64_t plans = 0;
  std::uint64_t splits_vetoed = 0;
};

/// Thread-safe policy engine: workers feed race outcomes concurrently; the
/// dispatch paths ask for decisions. One instance per Runtime.
class SpecPolicy {
 public:
  /// kAuto in `cfg` resolves to kStatic here; Runtime resolves it first.
  explicit SpecPolicy(PolicyConfig cfg = {});

  const PolicyConfig& config() const { return cfg_; }
  PolicyMode mode() const { return cfg_.mode; }

  /// Race post-mortem: win/spawn per position, wasted vs total work.
  /// Positions past kMaxTrackedAlts are not tracked. Thread-safe, and cheap
  /// in static mode too, so enabling adaptive mode later starts from real
  /// history.
  void observe_race(const AltOutcome& out);

  PolicyStats stats() const;

  // ---- pure decision functions; deterministic in their arguments ----

  /// (a) effective priorities for a race of base.size() positions. Static
  /// mode returns base unchanged in the identity order. Adaptive mode adds
  /// each position's win rate to its base priority and orders hottest
  /// first: the led position (led_position(base)) adds its led rate, every
  /// other position its unled rate. Reads only `s.alts`.
  static PolicyPlan decide_plan(const PolicyConfig& cfg,
                                const PolicySnapshot& s,
                                const std::vector<double>& base);
  /// (b) or-parallel Prolog: whether splitting a choice point of `fanout`
  /// clauses into speculative worlds is worth it, or the solver should
  /// fall back to sequential search. A vetoed split is re-allowed on every
  /// kSplitRetryEvery-th split step so the snapshot keeps being refreshed
  /// (otherwise a veto would freeze the signals that caused it).
  static bool decide_split(const PolicyConfig& cfg, const PolicySnapshot& s,
                           std::uint64_t step, std::size_t fanout);

  // ---- stateful wrappers: bump PolicyStats and emit policy trace events
  // (adaptive mode only) ----

  /// Race-dispatch hook (alt_pool / or_parallel).
  PolicyPlan plan_race(std::uint64_t group, const std::vector<double>& base);
  /// Or-parallel split hook; advances the split step.
  bool allow_split(std::uint64_t group, std::size_t fanout);

  /// Positions beyond this are passed through unlearned.
  static constexpr std::size_t kMaxTrackedAlts = 32;
  /// Re-allow cadence of a standing split veto, in split steps.
  static constexpr std::uint64_t kSplitRetryEvery = 8;

 private:
  PolicySnapshot snapshot_locked() const;
  void decay_locked();
  /// decide_plan over the per-position history alone: plan_race ranks
  /// from alts_ under mu_ without building a whole snapshot.
  static PolicyPlan plan_from(const PolicyConfig& cfg,
                              const std::vector<PolicyAltStat>& alts,
                              const std::vector<double>& base);

  PolicyConfig cfg_;

  mutable std::mutex mu_;
  std::uint64_t split_step_ = 0;  // split decisions (veto re-allow cadence)
  std::uint64_t races_ = 0;
  double work_total_ = 0.0;
  double work_wasted_ = 0.0;
  std::vector<PolicyAltStat> alts_;
  PolicyStats stats_;
};

}  // namespace mw
