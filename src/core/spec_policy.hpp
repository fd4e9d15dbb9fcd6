// Adaptive speculation policy engine. The runtime speculates blindly in the
// base paper: admission width (max_live_worlds), alternative priorities, and
// the service hedging delay are static constants chosen offline. The
// or-parallel splitting-strategies literature (PAPERS.md, arXiv:1301.7690)
// shows no single static choice dominates across workload shapes, so this
// engine closes the loop: SpecProfile-style online signals — wasted-work
// ratio, per-alternative win rate, pages copied by losers, admission-deferral
// rate, and a windowed latency reservoir (p50/p95) — feed three decisions the
// runtime previously hardcoded:
//
//   (a) dynamic admission width — how many speculative worlds SpecScheduler
//       admits before deferring, bounded above by the static
//       max_live_worlds budget and below by the width a single race needs;
//   (b) priority ordering / deferral of alternatives by historical win rate,
//       with an epsilon-explore floor so losing positions keep being
//       sampled (a deferred alternative still runs — it is ranked to the
//       cold end of the deque, where the winner's revocation usually
//       prunes it unrun at zero pages copied);
//   (c) hedge-launch timing in HedgedServer — hedge after the observed p95
//       of completed-request latency instead of a fixed delay, falling back
//       to the static delay while the reservoir is cold.
//
// Determinism contract: every decision is a pure function of
// (PolicyConfig, PolicySnapshot, seed, step). Randomness comes only from a
// derived Rng stream keyed (seed, step) — never from the callers' streams —
// so seed-replay tests keep their meaning. kStatic mode short-circuits each
// decision to its pass-through value without touching the step counter, the
// rng, or the trace stream.
//
// Default mode per engine: PolicyConfig's default is kAuto, which the owner
// resolves. Runtime makes it kAdaptive on the wall-clock kPool (no
// deterministic_seed), where the learned per-position ranking starts the
// likely winner right after the hinted alternative, and kStatic on every
// replayable engine (kVirtual, deterministic kPool), whose seed digests and
// goldens stay bit-for-bit. An engine built without an owner to resolve it
// (HedgedServer's hedge timing, a bare SpecPolicy) plans statically. An
// explicit kStatic or kAdaptive is kept as given.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "core/alt.hpp"
#include "util/vtime.hpp"

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
  /// Seed for the policy's private decision stream. 0 = derive from the
  /// owning component's seed (Runtime / ServiceConfig).
  std::uint64_t seed = 0;
  /// Probability that a plan boosts a uniformly random position instead of
  /// the win-rate favourite (epsilon-greedy exploration).
  double epsilon = 0.05;
  /// Explore floor: any tracked position left unboosted for this many plan
  /// steps is force-boosted to the top slot, so with k alternatives every
  /// position leads at least once per ~k * explore_window plans.
  std::uint64_t explore_window = 8;
  /// Win-rate window: every `win_window` observed races the per-position
  /// win/spawn counters are halved (exponential decay), so bursty workloads
  /// whose winner migrates do not fight stale history forever.
  std::uint64_t win_window = 32;
  /// Latency reservoir capacity (ring of the most recent samples).
  std::size_t latency_window = 128;
  /// Cold-start guard: below this many samples the reservoir's percentiles
  /// are undefined and hedge timing falls back to the static delay.
  std::size_t min_latency_samples = 8;
  /// Races to observe before the width controller narrows admission.
  std::uint64_t min_races = 8;
  /// Admission width never drops below this many worlds (and never below
  /// what a single race needs — the scheduler clamps that side).
  std::size_t min_width = 2;
  /// Width controller thresholds on the windowed wasted-work ratio.
  double waste_high = 0.5;
  double waste_low = 0.15;
  /// Deferral-rate threshold above which (with low waste) width re-widens.
  double defer_high = 0.25;
  /// Lower clamp for the adaptive hedge delay.
  VDuration hedge_floor = 1;
};

/// Per-position (index into the submitted alternative vector) outcome
/// history. Positions are the learning key: repeated races submitted by the
/// same program site keep their alternatives in a stable order.
struct PolicyAltStat {
  std::uint64_t spawned = 0;
  std::uint64_t wins = 0;
  std::uint64_t last_boost_step = 0;
  /// Optimistic initialisation: an unsampled position scores 1.0 so it is
  /// tried before history accumulates.
  double win_rate() const {
    return spawned == 0 ? 1.0
                        : static_cast<double>(wins) / static_cast<double>(spawned);
  }
};

/// Immutable view of the accumulated signals; decisions are pure functions
/// of a snapshot (plus config, seed, step).
struct PolicySnapshot {
  std::uint64_t races = 0;
  /// Windowed work accounting (decayed with the win counters).
  double work_total = 0.0;
  double work_wasted = 0.0;
  std::uint64_t pages_copied_losers = 0;
  std::uint64_t admissions = 0;
  std::uint64_t admission_deferrals = 0;
  std::vector<PolicyAltStat> alts;
  std::size_t latency_samples = 0;
  VDuration latency_p50 = 0;
  VDuration latency_p95 = 0;

  double wasted_ratio() const {
    return work_total <= 0.0 ? 0.0 : work_wasted / work_total;
  }
  double defer_rate() const {
    const std::uint64_t n = admissions + admission_deferrals;
    return n == 0 ? 0.0
                  : static_cast<double>(admission_deferrals) /
                        static_cast<double>(n);
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
  /// Position ranked first (the predicted winner or the explored position).
  std::size_t top = 0;
  /// Position ranked last (the "deferred" alternative: still submitted, but
  /// coldest in the deque and most likely revoked unrun).
  std::size_t deferred = 0;
  /// True when the top slot was an exploration (floor or epsilon), not the
  /// win-rate favourite.
  bool explored = false;
};

struct PolicyStats {
  std::uint64_t plans = 0;
  std::uint64_t explores = 0;
  std::uint64_t width_decisions = 0;
  std::uint64_t width_shrinks = 0;
  std::uint64_t hedge_decisions = 0;
  std::uint64_t hedge_fallbacks = 0;  // cold-start static fallbacks
  std::uint64_t splits_vetoed = 0;
};

/// Windowed latency reservoir: a ring of the most recent samples with
/// percentile queries over the current window.
class LatencyReservoir {
 public:
  explicit LatencyReservoir(std::size_t capacity = 128);
  void add(VDuration sample);
  std::size_t size() const { return size_; }
  /// Percentile over the window (nearest-rank on a sorted copy). Calling
  /// with an empty window is the caller's bug; decide_hedge_delay guards it.
  VDuration quantile(double q) const;

 private:
  std::vector<VDuration> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Thread-safe policy engine: workers feed observations concurrently; the
/// dispatch paths ask for decisions. One instance per Runtime (races,
/// admission, or-parallel splits) and one per HedgedServer (hedge timing).
class SpecPolicy {
 public:
  /// kAuto in `cfg` resolves to kStatic here; Runtime resolves it first.
  explicit SpecPolicy(PolicyConfig cfg = {});

  const PolicyConfig& config() const { return cfg_; }
  PolicyMode mode() const { return cfg_.mode; }

  // ---- feedback taps (thread-safe; cheap in static mode too, so enabling
  // adaptive mode later starts from real history) ----

  /// Race post-mortem: win/spawn per position, wasted vs total work, pages
  /// copied by losers. Positions past kMaxTrackedAlts are not tracked.
  void observe_race(const AltOutcome& out);
  /// Admission controller outcome: deferred (or shed to the queue) vs
  /// admitted immediately.
  void observe_admission(bool deferred);
  /// A completed operation's latency (service: request admission→response).
  void observe_latency(VDuration sample);

  PolicySnapshot snapshot() const;
  PolicyStats stats() const;

  // ---- pure decision functions; deterministic in their arguments ----

  /// (a) admission width in worlds, in [min(cfg.min_width, budget), budget].
  static std::size_t decide_width(const PolicyConfig& cfg,
                                  const PolicySnapshot& s, std::size_t budget);
  /// (b) effective priorities for a race of base.size() positions. Static
  /// mode returns base unchanged in the identity order. Adaptive mode adds
  /// each position's win rate to its base priority, then boosts one
  /// position to the top slot: the stalest position past the explore
  /// floor, an epsilon-random position (rng keyed (seed, step)), or the
  /// win-rate favourite. Reads only `s.alts`.
  static PolicyPlan decide_plan(const PolicyConfig& cfg,
                                const PolicySnapshot& s, std::uint64_t seed,
                                std::uint64_t step,
                                const std::vector<double>& base);
  /// (c) hedge-launch delay: observed p95 (clamped to >= hedge_floor) once
  /// the reservoir is warm; the static delay while it is cold.
  static VDuration decide_hedge_delay(const PolicyConfig& cfg,
                                      const PolicySnapshot& s,
                                      VDuration static_delay);
  /// Third consumer (or-parallel Prolog): whether splitting a choice point
  /// of `fanout` clauses into speculative worlds is worth it, or the solver
  /// should fall back to sequential search. A vetoed split is re-allowed
  /// once per explore_window steps so the snapshot keeps being refreshed
  /// (otherwise a veto would freeze the signals that caused it).
  static bool decide_split(const PolicyConfig& cfg, const PolicySnapshot& s,
                           std::uint64_t step, std::size_t fanout);

  // ---- stateful wrappers: advance the step counter, stamp last_boost,
  // bump PolicyStats, and emit policy trace events (adaptive mode only) ----

  /// Scheduler admission hook. `group` tags the trace event.
  std::size_t admission_width(std::size_t budget, std::uint64_t group = 0);
  /// Race-dispatch hook (alt_pool / or_parallel).
  PolicyPlan plan_race(std::uint64_t group, const std::vector<double>& base);
  /// Service hedge-timing hook. `ticket` tags the trace event.
  VDuration hedge_delay(VDuration static_delay, std::uint64_t ticket = 0);
  /// Or-parallel split hook.
  bool allow_split(std::uint64_t group, std::size_t fanout);

  /// Positions beyond this are passed through unlearned.
  static constexpr std::size_t kMaxTrackedAlts = 32;

 private:
  PolicySnapshot snapshot_locked() const;
  void decay_locked();
  /// decide_plan over the per-position history alone: plan_race ranks
  /// from alts_ under mu_ without building a whole snapshot.
  static PolicyPlan plan_from(const PolicyConfig& cfg,
                              const std::vector<PolicyAltStat>& alts,
                              std::uint64_t seed, std::uint64_t step,
                              const std::vector<double>& base);

  PolicyConfig cfg_;
  std::uint64_t seed_ = 0;  // resolved (cfg.seed or owner-derived)

  mutable std::mutex mu_;
  std::uint64_t step_ = 0;        // plan steps (explore-floor staleness clock)
  std::uint64_t split_step_ = 0;  // split decisions (veto re-allow cadence)
  std::uint64_t races_ = 0;
  double work_total_ = 0.0;
  double work_wasted_ = 0.0;
  std::uint64_t pages_copied_losers_ = 0;
  std::uint64_t admissions_ = 0;
  std::uint64_t admission_deferrals_ = 0;
  std::vector<PolicyAltStat> alts_;
  LatencyReservoir reservoir_;
  std::size_t latency_total_ = 0;
  std::size_t last_width_ = 0;  // last emitted width (trace de-noise)
  PolicyStats stats_;
};

}  // namespace mw
