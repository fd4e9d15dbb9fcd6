// SpecProfile: speculation-efficiency metrics derived from the raw trace
// stream. The paper's core trade is throughput burned as wasted speculative
// work in exchange for response time; this aggregator makes the burn rate a
// number. Grouped per race (alt group id) and totalled:
//
//   * worlds spawned vs. survived (committed) vs. eliminated/aborted;
//   * wasted-work ratio — losing alternatives' execution time over all
//     alternatives' execution time (0 = no speculation overhead,
//     (k-1)/k = perfectly balanced k-way race);
//   * pages copied by losers — COW traffic thrown away at elimination;
//   * time-to-first-win vs. time-to-quiesce — how long before the block
//     had its answer vs. how long until the last loser stopped burning
//     cycles (identical in the DES backends, which eliminate losers
//     instantly; they diverge on the wall-clock kPool).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace mw::trace {

/// Per-race (per alt-group) speculation accounting.
struct RaceProfile {
  std::uint64_t group = 0;
  Pid parent = kNoPid;
  std::size_t spawned = 0;     // worlds forked for this race
  std::size_t survived = 0;    // worlds that won their sync (committed)
  std::size_t eliminated = 0;  // losers killed by a sibling's win
  std::size_t aborted = 0;     // self-aborts (guard/body/accept failure)
  std::size_t splits = 0;      // receiver splits charged to this race
  VDuration work_total = 0;    // sum of all alternatives' execution time
  VDuration work_wasted = 0;   // execution time of non-surviving worlds
  std::uint64_t pages_copied_total = 0;
  std::uint64_t pages_copied_losers = 0;
  /// Pool backend: losers revoked while still queued — their bodies never
  /// ran and they copied zero pages. Counted inside `eliminated` too.
  std::size_t revoked = 0;
  /// COW pages the revoked siblings had copied when pruned. The pruning
  /// guarantee is that this is always 0; the bench asserts it.
  std::uint64_t revoked_pages = 0;
  VTime first_win = kNoTraceTime;  // earliest kAltSync timestamp
  VTime quiesce = kNoTraceTime;    // latest child-end/eliminate timestamp
  bool timed_out = false;          // block ended with no winner

  /// Fraction of alternative execution time spent in worlds that lost.
  double wasted_ratio() const {
    return work_total > 0
               ? static_cast<double>(work_wasted) /
                     static_cast<double>(work_total)
               : 0.0;
  }
};

/// One PagePool heap's page-frame counters at profile time. The trace
/// layer defines only the carrier struct (it cannot depend on the
/// pagestore); the pool fills it via PagePool::fold_into, typically through
/// TraceSession's profile hook. hits/misses/refills are attributed to the
/// heap of the allocating thread, recycled/dropped/spills to the heap of
/// the thread that freed the frame.
struct PoolShardCounters {
  std::size_t shard = 0;  // 0 = the shared heap, 1 + s = worker slot s
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t recycled = 0;
  std::uint64_t dropped = 0;
  std::uint64_t refills = 0;
  std::uint64_t spills = 0;
  std::uint64_t frames_held = 0;
};

/// Whole-run aggregation over a trace stream.
struct SpecProfile {
  std::vector<RaceProfile> races;  // in first-seen order
  std::uint64_t events = 0;        // trace records consumed
  std::uint64_t dropped = 0;       // ring drops (metrics are lower bounds)
  /// svc_breaker transitions into the open state (b == 1) — a payload
  /// condition no per-kind tally expresses.
  std::uint64_t svc_breaker_opens = 0;
  // Per-heap frame-pool counters (empty unless a caller folded them in;
  // see PagePool::fold_into and TraceSession::set_profile_hook).
  std::vector<PoolShardCounters> pool_shards;

  /// Events of kind `k`, and the sums of their `a` and `b` payloads —
  /// meaningful where the payload is a quantity (bytes, ticks, a 0/1
  /// flag; see the payload comments in MW_TRACE_KINDS).
  std::uint64_t count(EventKind k) const { return tally(k).count; }
  std::uint64_t sum_a(EventKind k) const { return tally(k).sum_a; }
  std::uint64_t sum_b(EventKind k) const { return tally(k).sum_b; }

  /// Supervisor restarts plus distributed failovers.
  std::uint64_t restarts() const;
  std::size_t worlds_spawned() const;
  std::size_t worlds_survived() const;
  std::size_t worlds_eliminated() const;
  VDuration work_total() const;
  VDuration work_wasted() const;
  std::uint64_t pages_copied_losers() const;
  std::size_t worlds_revoked() const;
  std::uint64_t revoked_pages() const;
  double wasted_ratio() const;

  /// Compact multi-line text summary for benches and altc_tool: the race,
  /// wasted-work and COW headlines, then one line per layer listing every
  /// kind seen with its count.
  std::string to_string() const;

 private:
  struct KindTally {
    std::uint64_t count = 0;
    std::uint64_t sum_a = 0;
    std::uint64_t sum_b = 0;
  };

  friend SpecProfile build_spec_profile(const std::vector<TraceEvent>&,
                                        std::uint64_t);
  const KindTally& tally(EventKind k) const {
    return kinds_[static_cast<std::size_t>(k)];
  }

  std::array<KindTally, kKindSlots> kinds_{};  // indexed by EventKind value
};

/// Builds the profile from a trace stream (as returned by collect()).
/// `dropped` is the collector's dropped() counter at snapshot time; when
/// non-zero the derived metrics are lower bounds and to_string says so.
SpecProfile build_spec_profile(const std::vector<TraceEvent>& events,
                               std::uint64_t dropped = 0);

}  // namespace mw::trace
