#include "core/spec_policy.hpp"

#include <algorithm>

#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace mw {

namespace {

// Work attributed to one spawned alternative. The virtual backend stamps
// start/finish in ticks; the wall-clock backends do not, so a report that
// ran counts one unit and a revoked-unrun report counts zero. The *ratio*
// wasted/total is the signal, and it is comparable either way.
double report_work(const AltReport& a) {
  if (a.finish > a.start) return static_cast<double>(a.finish - a.start);
  return a.ran ? 1.0 : 0.0;
}

std::size_t argmax(const std::vector<double>& v) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] > v[best]) best = i;  // ties resolve to the lowest index
  }
  return best;
}

std::size_t argmin(const std::vector<double>& v) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] <= v[best]) best = i;  // ties resolve to the highest index
  }
  return best;
}

PolicyConfig resolve_standalone(PolicyConfig cfg) {
  if (cfg.mode == PolicyMode::kAuto) cfg.mode = PolicyMode::kStatic;
  return cfg;
}

}  // namespace

LatencyReservoir::LatencyReservoir(std::size_t capacity)
    : ring_(std::max<std::size_t>(capacity, 1)) {}

void LatencyReservoir::add(VDuration sample) {
  ring_[head_] = sample;
  head_ = (head_ + 1) % ring_.size();
  if (size_ < ring_.size()) ++size_;
}

VDuration LatencyReservoir::quantile(double q) const {
  if (size_ == 0) return 0;
  std::vector<VDuration> sorted(ring_.begin(),
                                ring_.begin() + static_cast<long>(size_));
  std::sort(sorted.begin(), sorted.end());
  double rank = q * static_cast<double>(size_ - 1);
  if (rank < 0) rank = 0;
  auto idx = static_cast<std::size_t>(rank + 0.5);  // nearest rank
  if (idx >= size_) idx = size_ - 1;
  return sorted[idx];
}

SpecPolicy::SpecPolicy(PolicyConfig cfg)
    : cfg_(resolve_standalone(cfg)),
      seed_(cfg.seed != 0 ? cfg.seed : 0x9e3779b97f4a7c15ull),
      reservoir_(cfg.latency_window) {}

void SpecPolicy::observe_race(const AltOutcome& out) {
  std::lock_guard<std::mutex> lk(mu_);
  ++races_;
  for (const AltReport& a : out.alts) {
    if (!a.spawned || a.index == 0) continue;
    const std::size_t pos = a.index - 1;  // AltReport.index is 1-based
    const double w = report_work(a);
    work_total_ += w;
    if (!a.success) {
      work_wasted_ += w;
      pages_copied_losers_ += a.pages_copied;
    }
    if (pos >= kMaxTrackedAlts) continue;
    if (alts_.size() <= pos) alts_.resize(pos + 1);
    ++alts_[pos].spawned;
    if (a.success) ++alts_[pos].wins;
  }
  if (cfg_.win_window > 0 && races_ % cfg_.win_window == 0) decay_locked();
}

void SpecPolicy::observe_admission(bool deferred) {
  std::lock_guard<std::mutex> lk(mu_);
  if (deferred) {
    ++admission_deferrals_;
  } else {
    ++admissions_;
  }
}

void SpecPolicy::observe_latency(VDuration sample) {
  std::lock_guard<std::mutex> lk(mu_);
  reservoir_.add(sample);
  ++latency_total_;
}

// Exponential decay: halving the counters keeps the ratios but caps how
// much history a migrated workload has to outvote.
void SpecPolicy::decay_locked() {
  for (PolicyAltStat& a : alts_) {
    a.spawned /= 2;
    a.wins /= 2;
  }
  work_total_ /= 2;
  work_wasted_ /= 2;
  pages_copied_losers_ /= 2;
  admissions_ /= 2;
  admission_deferrals_ /= 2;
}

PolicySnapshot SpecPolicy::snapshot_locked() const {
  PolicySnapshot s;
  s.races = races_;
  s.work_total = work_total_;
  s.work_wasted = work_wasted_;
  s.pages_copied_losers = pages_copied_losers_;
  s.admissions = admissions_;
  s.admission_deferrals = admission_deferrals_;
  s.alts = alts_;
  s.latency_samples = reservoir_.size();
  if (s.latency_samples > 0) {
    s.latency_p50 = reservoir_.quantile(0.50);
    s.latency_p95 = reservoir_.quantile(0.95);
  }
  return s;
}

PolicySnapshot SpecPolicy::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return snapshot_locked();
}

PolicyStats SpecPolicy::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::size_t SpecPolicy::decide_width(const PolicyConfig& cfg,
                                     const PolicySnapshot& s,
                                     std::size_t budget) {
  MW_CHECK(cfg.mode != PolicyMode::kAuto);
  if (cfg.mode == PolicyMode::kStatic || budget == 0) return budget;
  std::size_t width = budget;
  if (s.races >= cfg.min_races) {
    const double waste = s.wasted_ratio();
    if (waste > cfg.waste_high) {
      width = budget / 2;
    } else if (waste > (cfg.waste_high + cfg.waste_low) / 2.0) {
      width = budget - budget / 4;
    }
    // Deferral pressure while speculation is paying off: widen back out.
    if (s.defer_rate() > cfg.defer_high && waste < cfg.waste_low) {
      width = budget;
    }
  }
  width = std::max(width, std::min(cfg.min_width, budget));
  return std::min(width, budget);
}

PolicyPlan SpecPolicy::decide_plan(const PolicyConfig& cfg,
                                   const PolicySnapshot& s, std::uint64_t seed,
                                   std::uint64_t step,
                                   const std::vector<double>& base) {
  return plan_from(cfg, s.alts, seed, step, base);
}

PolicyPlan SpecPolicy::plan_from(const PolicyConfig& cfg,
                                 const std::vector<PolicyAltStat>& alts,
                                 std::uint64_t seed, std::uint64_t step,
                                 const std::vector<double>& base) {
  MW_CHECK(cfg.mode != PolicyMode::kAuto);
  PolicyPlan plan;
  plan.priority = base;
  const std::size_t k = base.size();
  if (k == 0) return plan;
  plan.order.resize(k);
  for (std::size_t i = 0; i < k; ++i) plan.order[i] = i;
  if (cfg.mode == PolicyMode::kStatic || k == 1) {
    // The one kStatic path: base priorities in the identity order, so
    // static submission walks the alternatives as given.
    plan.top = argmax(plan.priority);
    plan.deferred = argmin(plan.priority);
    return plan;
  }

  // Blend: base priority + historical win rate per position. Positions the
  // snapshot has never seen score the optimistic 1.0.
  for (std::size_t i = 0; i < k; ++i) {
    const double rate = i < alts.size() ? alts[i].win_rate() : 1.0;
    plan.priority[i] += rate;
  }

  // Explore floor first: the stalest tracked position past the window is
  // force-boosted so every position keeps being sampled at the hot end.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t boost = kNone;
  std::uint64_t best_staleness = 0;
  const std::size_t tracked = std::min(k, alts.size());
  for (std::size_t i = 0; i < tracked; ++i) {
    const std::uint64_t staleness = step - alts[i].last_boost_step;
    if (staleness >= cfg.explore_window && staleness > best_staleness) {
      best_staleness = staleness;
      boost = i;
    }
  }
  if (boost == kNone && cfg.epsilon > 0.0) {
    // Epsilon draw from the policy's private stream, keyed (seed, step):
    // pure in the decision's arguments, invisible to the callers' streams.
    Rng rng = Rng(seed).split(step);
    if (rng.next_bool(cfg.epsilon)) {
      boost = static_cast<std::size_t>(rng.next_below(k));
    }
  }
  if (boost != kNone) {
    plan.priority[boost] =
        *std::max_element(plan.priority.begin(), plan.priority.end()) + 1.0;
    plan.explored = true;
  }
  // Hottest-first submission order; ties keep input order, so top matches
  // argmax (lowest index wins) and deferred matches argmin (highest index).
  std::stable_sort(plan.order.begin(), plan.order.end(),
                   [&plan](std::size_t a, std::size_t b) {
                     return plan.priority[a] > plan.priority[b];
                   });
  plan.top = plan.order.front();
  plan.deferred = plan.order.back();
  return plan;
}

VDuration SpecPolicy::decide_hedge_delay(const PolicyConfig& cfg,
                                         const PolicySnapshot& s,
                                         VDuration static_delay) {
  MW_CHECK(cfg.mode != PolicyMode::kAuto);
  if (cfg.mode == PolicyMode::kStatic) return static_delay;
  // Cold start: below min_latency_samples the reservoir's p95 is undefined
  // (or degenerate); hedging must fall back to the static delay — never to
  // 0, which would hedge every request immediately.
  if (s.latency_samples < cfg.min_latency_samples || s.latency_p95 <= 0) {
    return static_delay;
  }
  return std::max(s.latency_p95, cfg.hedge_floor);
}

bool SpecPolicy::decide_split(const PolicyConfig& cfg, const PolicySnapshot& s,
                              std::uint64_t step, std::size_t fanout) {
  MW_CHECK(cfg.mode != PolicyMode::kAuto);
  if (cfg.mode == PolicyMode::kStatic) return true;
  if (fanout < 2 || s.races < cfg.min_races) return true;
  if (s.wasted_ratio() <= cfg.waste_high) return true;
  // Re-allow periodically: a standing veto would stop producing races and
  // freeze the very snapshot that justified it.
  return cfg.explore_window > 0 && step % cfg.explore_window == 0;
}

std::size_t SpecPolicy::admission_width(std::size_t budget,
                                        std::uint64_t group) {
  if (cfg_.mode == PolicyMode::kStatic) return budget;
  std::lock_guard<std::mutex> lk(mu_);
  const std::size_t width = decide_width(cfg_, snapshot_locked(), budget);
  ++stats_.width_decisions;
  if (width < budget) ++stats_.width_shrinks;
  if (width != last_width_) {
    last_width_ = width;
    MW_TRACE_EVENT(trace::EventKind::kPolicyWidth, kNoPid, kNoPid,
                   static_cast<std::uint64_t>(width),
                   static_cast<std::uint64_t>(budget));
  }
  (void)group;
  return width;
}

PolicyPlan SpecPolicy::plan_race(std::uint64_t group,
                                 const std::vector<double>& base) {
  if (cfg_.mode == PolicyMode::kStatic) return plan_from(cfg_, {}, 0, 0, base);
  std::lock_guard<std::mutex> lk(mu_);
  const std::uint64_t step = ++step_;
  PolicyPlan plan = plan_from(cfg_, alts_, seed_, step, base);
  ++stats_.plans;
  if (plan.explored) ++stats_.explores;
  // The boosted/top position counts as sampled for the explore floor.
  if (plan.top < alts_.size()) alts_[plan.top].last_boost_step = step;
  if (plan.priority.size() >= 2) {
    MW_TRACE_EVENT(trace::EventKind::kPolicyOrder, kNoPid, kNoPid, group,
                   static_cast<std::uint64_t>(plan.top));
    MW_TRACE_EVENT(trace::EventKind::kPolicyDefer, kNoPid, kNoPid, group,
                   static_cast<std::uint64_t>(plan.deferred));
    if (plan.explored) {
      MW_TRACE_EVENT(trace::EventKind::kPolicyExplore, kNoPid, kNoPid, group,
                     static_cast<std::uint64_t>(plan.top));
    }
  }
  return plan;
}

VDuration SpecPolicy::hedge_delay(VDuration static_delay,
                                  std::uint64_t ticket) {
  if (cfg_.mode == PolicyMode::kStatic) return static_delay;
  std::lock_guard<std::mutex> lk(mu_);
  const VDuration d =
      decide_hedge_delay(cfg_, snapshot_locked(), static_delay);
  ++stats_.hedge_decisions;
  const bool adaptive =
      reservoir_.size() >= cfg_.min_latency_samples && d != static_delay;
  if (reservoir_.size() < cfg_.min_latency_samples) ++stats_.hedge_fallbacks;
  if (adaptive) {
    MW_TRACE_EVENT(trace::EventKind::kPolicyHedge, kNoPid, kNoPid, ticket,
                   static_cast<std::uint64_t>(d));
  }
  return d;
}

bool SpecPolicy::allow_split(std::uint64_t group, std::size_t fanout) {
  if (cfg_.mode == PolicyMode::kStatic) return true;
  std::lock_guard<std::mutex> lk(mu_);
  // Splits have their own step clock: a split probe per race would double
  // the plan clock and make the explore floor fire twice as often.
  const std::uint64_t step = ++split_step_;
  const bool allow = decide_split(cfg_, snapshot_locked(), step, fanout);
  if (!allow) {
    ++stats_.splits_vetoed;
    MW_TRACE_EVENT(trace::EventKind::kPolicyDefer, kNoPid, kNoPid, group,
                   static_cast<std::uint64_t>(fanout));
  }
  return allow;
}

}  // namespace mw
