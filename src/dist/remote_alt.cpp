#include "dist/remote_alt.hpp"

#include "util/check.hpp"

namespace mw {

DistributedRaceResult distributed_race(const RemoteForker& forker,
                                       const AddressSpace& parent_image,
                                       const std::vector<RemoteAltSpec>& specs,
                                       bool on_demand,
                                       double touch_fraction) {
  DistributedRaceResult out;
  if (specs.empty()) return out;

  // The reply is a small result message over the same link.
  const LinkModel link;  // forker's link is private; replies use defaults
  const VDuration reply = link.transfer_time(256);

  VDuration spawn_clock = 0;
  VDuration best = kVTimeMax;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RforkResult r = on_demand
                              ? forker.on_demand(parent_image, touch_fraction)
                              : forker.full_copy(parent_image);
    // Serial spawn: the parent must finish shipping child i before child
    // i+1 (checkpoint creation is parent CPU work). The child starts when
    // its own transfer completes.
    spawn_clock += r.checkpoint_cost;
    const VDuration child_start =
        spawn_clock + (r.total_elapsed - r.checkpoint_cost);
    out.bytes_shipped += r.bytes_shipped;
    if (!specs[i].success) continue;
    const VDuration finish = child_start + specs[i].duration + reply;
    if (finish < best) {
      best = finish;
      out.winner = i;
      out.failed = false;
    }
  }
  out.spawn_total = spawn_clock;
  out.elapsed = out.failed ? kVTimeMax : best;
  return out;
}

VDuration local_race(std::size_t processors, VDuration local_fork_cost,
                     const std::vector<RemoteAltSpec>& specs) {
  MW_CHECK(processors > 0);
  std::vector<VirtualTask> tasks;
  tasks.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    tasks.push_back(VirtualTask{
        static_cast<Pid>(i + 1),
        local_fork_cost * static_cast<VDuration>(i + 1),  // serial forks
        specs[i].duration, specs[i].success});
  }
  const ScheduleOutcome sched = ps_schedule(processors, tasks);
  return sched.winner_index.has_value() ? sched.winner_finish : kVTimeMax;
}

}  // namespace mw
