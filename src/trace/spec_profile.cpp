#include "trace/spec_profile.hpp"

#include <algorithm>
#include <sstream>
#include <string_view>
#include <unordered_map>

namespace mw::trace {

namespace {

struct ChildInfo {
  std::uint64_t group = 0;
  VTime start = kNoTraceTime;
  VTime end = kNoTraceTime;
  std::uint64_t pages = 0;
  enum Fate { kPending, kSurvived, kEliminated, kAborted } fate = kPending;

  VDuration work() const {
    return (start != kNoTraceTime && end != kNoTraceTime && end > start)
               ? end - start
               : 0;
  }
};

void max_time(VTime& slot, VTime t) {
  if (t != kNoTraceTime && (slot == kNoTraceTime || t > slot)) slot = t;
}

void min_time(VTime& slot, VTime t) {
  if (t != kNoTraceTime && (slot == kNoTraceTime || t < slot)) slot = t;
}

// A kind's layer: its name up to the first '_' ("svc" for svc_shed).
std::string_view layer_of(EventKind k) {
  const std::string_view name = kind_name(k);
  return name.substr(0, name.find('_'));
}

}  // namespace

std::size_t SpecProfile::worlds_spawned() const {
  std::size_t n = 0;
  for (const RaceProfile& r : races) n += r.spawned;
  return n;
}

std::size_t SpecProfile::worlds_survived() const {
  std::size_t n = 0;
  for (const RaceProfile& r : races) n += r.survived;
  return n;
}

std::size_t SpecProfile::worlds_eliminated() const {
  std::size_t n = 0;
  for (const RaceProfile& r : races) n += r.eliminated + r.aborted;
  return n;
}

VDuration SpecProfile::work_total() const {
  VDuration n = 0;
  for (const RaceProfile& r : races) n += r.work_total;
  return n;
}

VDuration SpecProfile::work_wasted() const {
  VDuration n = 0;
  for (const RaceProfile& r : races) n += r.work_wasted;
  return n;
}

std::uint64_t SpecProfile::pages_copied_losers() const {
  std::uint64_t n = 0;
  for (const RaceProfile& r : races) n += r.pages_copied_losers;
  return n;
}

std::size_t SpecProfile::worlds_revoked() const {
  std::size_t n = 0;
  for (const RaceProfile& r : races) n += r.revoked;
  return n;
}

std::uint64_t SpecProfile::revoked_pages() const {
  std::uint64_t n = 0;
  for (const RaceProfile& r : races) n += r.revoked_pages;
  return n;
}

std::uint64_t SpecProfile::restarts() const {
  return count(EventKind::kSuperRestart) + count(EventKind::kDistFailover);
}

double SpecProfile::wasted_ratio() const {
  const VDuration total = work_total();
  return total > 0 ? static_cast<double>(work_wasted()) /
                         static_cast<double>(total)
                   : 0.0;
}

SpecProfile build_spec_profile(const std::vector<TraceEvent>& events,
                               std::uint64_t dropped) {
  SpecProfile p;
  p.events = events.size();
  p.dropped = dropped;

  std::unordered_map<std::uint64_t, std::size_t> race_index;
  std::unordered_map<Pid, ChildInfo> children;

  auto race_for = [&](std::uint64_t group) -> RaceProfile& {
    auto it = race_index.find(group);
    if (it == race_index.end()) {
      it = race_index.emplace(group, p.races.size()).first;
      p.races.emplace_back();
      p.races.back().group = group;
    }
    return p.races[it->second];
  };

  for (const TraceEvent& e : events) {
    const auto slot = static_cast<std::size_t>(e.kind);
    if (slot < kKindSlots) {
      SpecProfile::KindTally& t = p.kinds_[slot];
      ++t.count;
      t.sum_a += e.a;
      t.sum_b += e.b;
    }
    switch (e.kind) {
      case EventKind::kAltBlockBegin: {
        RaceProfile& r = race_for(e.a);
        r.parent = e.pid;
        break;
      }
      case EventKind::kAltSpawn: {
        race_for(e.a).spawned++;
        children[e.pid].group = e.a;
        break;
      }
      case EventKind::kAltChildBegin: {
        ChildInfo& c = children[e.pid];
        c.group = e.a;
        c.start = e.t;
        break;
      }
      case EventKind::kAltChildEnd: {
        ChildInfo& c = children[e.pid];
        c.group = e.a;
        c.end = e.t;
        c.pages = e.b;
        max_time(race_for(e.a).quiesce, e.t);
        break;
      }
      case EventKind::kAltSync: {
        RaceProfile& r = race_for(e.a);
        r.survived++;
        min_time(r.first_win, e.t);
        max_time(r.quiesce, e.t);
        if (auto it = children.find(e.pid); it != children.end())
          it->second.fate = ChildInfo::kSurvived;
        break;
      }
      case EventKind::kAltEliminate: {
        RaceProfile& r = race_for(e.a);
        r.eliminated++;
        max_time(r.quiesce, e.t);
        if (auto it = children.find(e.pid); it != children.end())
          it->second.fate = ChildInfo::kEliminated;
        break;
      }
      case EventKind::kAltAbort: {
        RaceProfile& r = race_for(e.a);
        r.aborted++;
        max_time(r.quiesce, e.t);
        if (auto it = children.find(e.pid); it != children.end())
          it->second.fate = ChildInfo::kAborted;
        break;
      }
      case EventKind::kAltBlockEnd: {
        if (e.b != 0) race_for(e.a).timed_out = true;
        break;
      }
      case EventKind::kWorldSplit: {
        if (e.b != 0) race_for(e.b).splits++;
        break;
      }
      case EventKind::kSvcBreaker:
        if (e.b == 1) p.svc_breaker_opens++;
        break;
      case EventKind::kSchedRevoke: {
        RaceProfile& r = race_for(e.a);
        r.revoked++;
        r.revoked_pages += e.b;
        break;
      }
      default: break;
    }
  }

  // Second pass: charge each child's execution time and COW traffic to its
  // race now that every fate is known (event order within a race is not
  // guaranteed to put the fate after the child-end record).
  for (const auto& [pid, c] : children) {
    RaceProfile& r = race_for(c.group);
    r.work_total += c.work();
    r.pages_copied_total += c.pages;
    if (c.fate != ChildInfo::kSurvived) {
      r.work_wasted += c.work();
      r.pages_copied_losers += c.pages;
    }
  }
  return p;
}

std::string SpecProfile::to_string() const {
  std::ostringstream os;
  os << "SpecProfile: " << races.size() << " race(s), " << worlds_spawned()
     << " world(s) spawned, " << worlds_survived() << " survived, "
     << worlds_eliminated() << " eliminated/aborted\n";
  os.setf(std::ios::fixed);
  os.precision(3);
  os << "  wasted-work ratio " << wasted_ratio() << " ("
     << vt_to_ms(work_wasted()) << " of " << vt_to_ms(work_total())
     << " ms burned in losing worlds)\n";
  const std::uint64_t page_copies = count(EventKind::kPageCopy);
  os << "  COW traffic: " << page_copies << " page cop"
     << (page_copies == 1 ? "y" : "ies") << " ("
     << sum_b(EventKind::kPageCopy) << " B), " << pages_copied_losers()
     << " page(s) copied by losers";
  if (revoked_pages() > 0)
    os << ", " << revoked_pages() << " by revoked siblings";
  os << "\n";
  // One line per layer, in table order, naming each kind seen.
  std::vector<std::string_view> layers;
  for (EventKind k : kAllKinds)
    if (count(k) > 0 &&
        std::find(layers.begin(), layers.end(), layer_of(k)) == layers.end())
      layers.push_back(layer_of(k));
  for (std::string_view layer : layers) {
    os << "  " << layer << ":";
    const char* sep = " ";
    for (EventKind k : kAllKinds) {
      if (count(k) == 0 || layer_of(k) != layer) continue;
      os << sep << std::string_view(kind_name(k)).substr(layer.size() + 1)
         << " " << count(k);
      sep = ", ";
    }
    os << "\n";
  }
  if (restarts() > 0) os << "  restarts/failovers: " << restarts() << "\n";
  if (svc_breaker_opens > 0)
    os << "  breaker opens: " << svc_breaker_opens << "\n";
  if (!pool_shards.empty()) {
    PoolShardCounters sum;
    for (const PoolShardCounters& c : pool_shards) {
      sum.hits += c.hits;
      sum.misses += c.misses;
      sum.refills += c.refills;
      sum.spills += c.spills;
      sum.frames_held += c.frames_held;
    }
    os << "  page pool: " << pool_shards.size() << " heap(s), " << sum.hits
       << " hit(s), " << sum.misses << " miss(es), " << sum.refills
       << " refill(s), " << sum.spills << " spill(s), " << sum.frames_held
       << " frame(s) held\n";
    for (const PoolShardCounters& c : pool_shards) {
      if (c.hits + c.misses + c.recycled + c.dropped + c.frames_held == 0)
        continue;
      os << "    heap #" << c.shard << (c.shard == 0 ? " (shared)" : "")
         << ": " << c.hits << " hit(s), " << c.misses << " miss(es), "
         << c.recycled << " recycled, " << c.dropped << " dropped, "
         << c.refills << " refill(s), " << c.spills << " spilled, "
         << c.frames_held << " held\n";
    }
  }
  for (const RaceProfile& r : races) {
    os << "  race #" << r.group << ": " << r.spawned << " spawned, "
       << r.survived << " won, " << r.eliminated << " eliminated, "
       << r.aborted << " aborted";
    if (r.splits > 0) os << ", " << r.splits << " split(s)";
    os << "; wasted " << r.wasted_ratio();
    if (r.first_win != kNoTraceTime)
      os << "; first win @" << vt_to_ms(r.first_win) << " ms";
    if (r.quiesce != kNoTraceTime)
      os << ", quiesce @" << vt_to_ms(r.quiesce) << " ms";
    if (r.timed_out) os << " [timed out]";
    os << "\n";
  }
  if (dropped > 0)
    os << "  (" << dropped
       << " event(s) dropped by full rings — figures are lower bounds)\n";
  return os.str();
}

}  // namespace mw::trace
