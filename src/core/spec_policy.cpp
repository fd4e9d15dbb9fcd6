#include "core/spec_policy.hpp"

#include <algorithm>
#include <optional>

#include "trace/trace.hpp"
#include "util/check.hpp"

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

SpecPolicy::SpecPolicy(PolicyConfig cfg) : cfg_(resolve_standalone(cfg)) {}

void SpecPolicy::observe_race(const AltOutcome& out) {
  std::lock_guard<std::mutex> lk(mu_);
  ++races_;
  for (const AltReport& a : out.alts) {
    if (!a.spawned || a.index == 0) continue;
    const std::size_t pos = a.index - 1;  // AltReport.index is 1-based
    const double w = report_work(a);
    work_total_ += w;
    if (!a.success) work_wasted_ += w;
    if (pos >= kMaxTrackedAlts) continue;
    if (alts_.size() <= pos) alts_.resize(pos + 1);
    PolicyAltStat& st = alts_[pos];
    (a.led ? st.led_spawned : st.spawned) += 1;
    if (a.success) (a.led ? st.led_wins : st.wins) += 1;
  }
  if (cfg_.win_window > 0 && races_ % cfg_.win_window == 0) decay_locked();
}

// Exponential decay: halving the counters keeps the ratios but caps how
// much history a migrated workload has to outvote.
void SpecPolicy::decay_locked() {
  for (PolicyAltStat& a : alts_) {
    a.spawned /= 2;
    a.wins /= 2;
    a.led_spawned /= 2;
    a.led_wins /= 2;
  }
  work_total_ /= 2;
  work_wasted_ /= 2;
}

PolicySnapshot SpecPolicy::snapshot_locked() const {
  PolicySnapshot s;
  s.races = races_;
  s.work_total = work_total_;
  s.work_wasted = work_wasted_;
  s.alts = alts_;
  return s;
}

PolicyStats SpecPolicy::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

PolicyPlan SpecPolicy::decide_plan(const PolicyConfig& cfg,
                                   const PolicySnapshot& s,
                                   const std::vector<double>& base) {
  return plan_from(cfg, s.alts, base);
}

PolicyPlan SpecPolicy::plan_from(const PolicyConfig& cfg,
                                 const std::vector<PolicyAltStat>& alts,
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

  // Blend: base priority + historical win rate per position, the led
  // position's from its led races and every other one's from its unled
  // races. Positions the snapshot has never seen score the optimistic 1.0.
  const std::optional<std::size_t> led = led_position(base);
  for (std::size_t i = 0; i < k; ++i) {
    double rate = 1.0;
    if (i < alts.size())
      rate = led == i ? alts[i].led_win_rate() : alts[i].win_rate();
    plan.priority[i] += rate;
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

bool SpecPolicy::decide_split(const PolicyConfig& cfg, const PolicySnapshot& s,
                              std::uint64_t step, std::size_t fanout) {
  MW_CHECK(cfg.mode != PolicyMode::kAuto);
  if (cfg.mode == PolicyMode::kStatic) return true;
  if (fanout < 2 || s.races < cfg.min_races) return true;
  if (s.wasted_ratio() <= cfg.waste_high) return true;
  // Re-allow periodically: a standing veto would stop producing races and
  // freeze the very snapshot that justified it.
  return step % kSplitRetryEvery == 0;
}

PolicyPlan SpecPolicy::plan_race(std::uint64_t group,
                                 const std::vector<double>& base) {
  if (cfg_.mode == PolicyMode::kStatic) return plan_from(cfg_, {}, base);
  std::lock_guard<std::mutex> lk(mu_);
  PolicyPlan plan = plan_from(cfg_, alts_, base);
  ++stats_.plans;
  if (plan.priority.size() >= 2) {
    MW_TRACE_EVENT(trace::EventKind::kPolicyOrder, kNoPid, kNoPid, group,
                   static_cast<std::uint64_t>(plan.top));
    MW_TRACE_EVENT(trace::EventKind::kPolicyDefer, kNoPid, kNoPid, group,
                   static_cast<std::uint64_t>(plan.deferred));
  }
  return plan;
}

bool SpecPolicy::allow_split(std::uint64_t group, std::size_t fanout) {
  if (cfg_.mode == PolicyMode::kStatic) return true;
  std::lock_guard<std::mutex> lk(mu_);
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
