#include "rb/recovery_block.hpp"

#include "core/alt_block.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace mw {

RecoveryBlock& RecoveryBlock::ensure_by(std::string name,
                                        std::function<void(AltContext&)> body) {
  // Every alternate declares a named fault point before its body: the
  // injector can fail, crash or hang any specific alternate of any block.
  auto wrapped = [point = "rb." + name_ + "." + name,
                  inner = std::move(body)](AltContext& ctx) {
    ctx.fault_point(point);
    inner(ctx);
  };
  alternates_.push_back(
      Alternative{std::move(name), nullptr, std::move(wrapped), acceptance_});
  return *this;
}

RbResult RecoveryBlock::run_sequential(Runtime& rt, World& world) const {
  RbResult out;
  const CostModel& cost = rt.config().cost;
  const bool virtual_mode = rt.config().backend == AltBackend::kVirtual;

  for (std::size_t i = 0; i < alternates_.size(); ++i) {
    const Alternative& alt = alternates_[i];
    // Each alternate is guaranteed the same initial state: a fresh COW
    // child of the (unmodified) parent world.
    const std::uint64_t group = rt.next_alt_group();
    const Pid pid = rt.processes().create(world.pid(), group, alt.name);
    World child = world.fork_alternative(pid, {pid});
    rt.processes().set_status(pid, ProcStatus::kRunning);
    out.elapsed += cost.fork_cost(world.space().table().resident_pages());

    AltContext ctx(child, i + 1, rt.rng_for(group, i + 1), nullptr,
                   virtual_mode);
    Stopwatch wall;
    // Sequential standby-spares has no concurrent deadline: a hung
    // alternate is detected (by a watchdog the model does not charge for)
    // and, like a crash or a rejection, counts as a failed spare.
    const bool ok = internal::run_child(alt, child, ctx, kGuardInChild) ==
                    internal::Verdict::kSuccess;
    const std::uint64_t copied = child.space().table().stats().pages_copied;
    out.elapsed += virtual_mode
                       ? ctx.accounted_work() +
                             cost.cow_copy_per_page *
                                 static_cast<VDuration>(copied)
                       : static_cast<VDuration>(wall.elapsed_us());

    if (ok) {
      const std::size_t changed =
          child.space().table().diff(world.space().table()).size();
      out.elapsed += cost.commit_cost(changed);
      rt.processes().set_status(pid, ProcStatus::kSynced);
      world.commit_from(std::move(child));
      out.succeeded = true;
      out.alternate_used = i;
      out.alternate_name = alt.name;
      return out;
    }
    // Rollback is free: the child world is simply dropped.
    rt.processes().set_status(pid, ProcStatus::kFailed);
    ++out.rejected;
  }
  return out;  // error: every alternate rejected
}

RbResult RecoveryBlock::run_concurrent(Runtime& rt, World& world,
                                       const AltOptions& opts) const {
  RbResult out;
  AltOutcome ao = run_alternatives(rt, world, alternates_, opts);
  out.elapsed = ao.elapsed;
  out.succeeded = !ao.failed;
  if (ao.winner.has_value()) {
    out.alternate_used = *ao.winner;
    out.alternate_name = ao.winner_name;
  }
  for (const AltReport& r : ao.alts) {
    if (r.spawned && !r.success) ++out.rejected;
  }
  return out;
}

FaultPlan FaultPlan::fail_first(int n) {
  FaultPlan p;
  p.kind_ = Kind::kFirst;
  p.n_ = n;
  return p;
}

FaultPlan FaultPlan::always() {
  FaultPlan p;
  p.kind_ = Kind::kAlways;
  return p;
}

FaultPlan FaultPlan::periodic(int period, int phase) {
  MW_CHECK(period >= 1);
  FaultPlan p;
  p.kind_ = Kind::kPeriodic;
  p.period_ = period;
  p.phase_ = phase;
  return p;
}

FaultPlan FaultPlan::none() { return FaultPlan{}; }

bool FaultPlan::next_fails() {
  const int k = count_++;
  switch (kind_) {
    case Kind::kNone:
      return false;
    case Kind::kFirst:
      return k < n_;
    case Kind::kAlways:
      return true;
    case Kind::kPeriodic:
      return (k + phase_) % period_ == 0;
  }
  return false;
}

}  // namespace mw
