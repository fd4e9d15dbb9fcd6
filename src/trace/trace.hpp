// mw_trace: the runtime observability layer — a lock-free, thread-local
// ring-buffer event collector instrumenting the full world lifecycle
// (spawn / split / commit / eliminate, page COW traffic, predicated
// delivery decisions, gate deferral, restart/failover).
//
// Design constraints, in order:
//   1. Near-zero cost when off. Every instrumentation site is the
//      MW_TRACE_EVENT macro: one relaxed atomic load when tracing is
//      compiled in but disabled; nothing at all when compiled out
//      (cmake -DMW_TRACE=OFF).
//   2. No cross-thread contention when on. Each emitting thread owns a
//      private fixed-size ring; the only shared write is one relaxed
//      fetch_add allocating the global sequence number that makes the
//      merged stream totally ordered.
//   3. Fixed-size binary records. No strings, no allocation on the emit
//      path after the ring exists; a full ring drops its *oldest* record
//      and counts the drop — the collector never blocks the runtime.
//
// The raw stream feeds three consumers (see the sibling headers):
// SpecProfile (per-race speculation-efficiency metrics), the Chrome-trace
// exporter (world lineage as nested spans for chrome://tracing /
// ui.perfetto.dev), and the RuntimeAuditor's trace cross-check.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/ids.hpp"
#include "util/vtime.hpp"

namespace mw::trace {

/// The trace-kind catalog, one row per kind: X(enumerator, value, name),
/// with the kind's payload on the row's comment. Everything that lists the
/// kinds is generated from this table — the EventKind enum, kind_name(),
/// kAllKinds, SpecProfile's per-kind counters and its per-layer summary
/// lines — and tools/docs_check.py holds the kind table in
/// docs/OBSERVABILITY.md to the same (name, value) pairs. Values are part
/// of the on-disk schema: append new rows, never renumber. A kind's layer
/// is its name up to the first '_'.
#define MW_TRACE_KINDS(X)                                                     \
  /* Alternative-block lifecycle (src/core backends + src/worlds races). */   \
  X(kAltBlockBegin, 1, "alt_block_begin")                                     \
      /* pid=parent, a=group, b=alternatives spawned */                       \
  X(kAltSpawn, 2, "alt_spawn")                                                \
      /* pid=child, other=parent, a=group, b=alt index (1-based) */           \
  X(kAltChildBegin, 3, "alt_child_begin")                                     \
      /* pid=child, a=group — child starts executing */                       \
  X(kAltChildEnd, 4, "alt_child_end")                                         \
      /* pid=child, a=group, b=pages copied in its world */                   \
  X(kAltSync, 5, "alt_sync")                                                  \
      /* pid=winner, other=parent, a=group — at-most-once win */              \
  X(kAltEliminate, 6, "alt_eliminate")  /* pid=loser, a=group */              \
  X(kAltAbort, 7, "alt_abort")                                                \
      /* pid=child, a=group — guard/body/accept failure */                    \
  X(kAltWait, 8, "alt_wait")                                                  \
      /* pid=parent, a=group — parent blocks in alt_wait */                   \
  X(kAltBlockEnd, 9, "alt_block_end")                                         \
      /* pid=parent, a=group, b=AltFailure (0 = won) */                       \
  /* World lifecycle (src/core/world, src/worlds). */                         \
  X(kWorldFork, 16, "world_fork")                                             \
      /* pid=child, other=parent — fork_alternative */                        \
  X(kWorldSplit, 17, "world_split")                                           \
      /* pid=new (rejecting) copy, other=split world, b=group */              \
  X(kWorldCommit, 18, "world_commit")                                         \
      /* pid=parent, other=child — page-pointer replacement */                \
  X(kWorldRollback, 19, "world_rollback")                                     \
      /* pid=world — rewind to checkpoint snapshot */                         \
  /* Page traffic (src/pagestore). */                                         \
  X(kPageFork, 32, "page_fork")  /* a=resident pages at fork */               \
  X(kPageAdopt, 33, "page_adopt")  /* a=resident pages adopted */             \
  X(kPageAlloc, 34, "page_alloc")  /* a=page index — demand allocation */     \
  X(kPageCopy, 35, "page_copy")  /* a=page index, b=bytes copied — one COW    \
                                    break; 0 for a whole-page write */        \
  /* Predicated delivery (src/msg). */                                        \
  X(kMsgAccept, 48, "msg_accept")                                             \
      /* pid=sender, a=receiver predicate count */                            \
  X(kMsgIgnore, 49, "msg_ignore")                                             \
      /* pid=sender, a=receiver predicate count */                            \
  X(kMsgSplit, 50, "msg_split")  /* pid=sender, a=receiver predicate count */ \
  /* Source gate (src/io). */                                                 \
  X(kGateDefer, 64, "gate_defer")                                             \
      /* pid=speculative requester, a=pending after defer */                  \
  X(kGateRelease, 65, "gate_release")                                         \
      /* pid=synced world, a=intents executed */                              \
  X(kGateDrop, 66, "gate_drop")  /* pid=dead world, a=intents dropped */      \
  X(kGateReject, 67, "gate_reject")                                           \
      /* pid=speculative requester (kReject policy) */                        \
  /* Supervision & distribution (src/super, src/dist). */                     \
  X(kSuperRestart, 80, "super_restart")                                       \
      /* pid=new attempt, other=dead attempt, a=attempt # */                  \
  X(kSuperQuarantine, 81, "super_quarantine")                                 \
      /* pid=final attempt, a=restarts burned */                              \
  X(kSuperCheckpoint, 82, "super_checkpoint")                                 \
      /* pid=attempt, a=resident pages, b=1 if delta */                       \
  X(kDistFailover, 83, "dist_failover")                                       \
      /* a=alt index, b=bytes of the re-sealed image re-dispatched */         \
  X(kDistDemote, 84, "dist_demote")                                           \
      /* a=alt index — alternative finished locally by the coordinator */     \
  /* Speculation scheduler (src/core/spec_scheduler, the kPool backend). */   \
  X(kSchedEnqueue, 96, "sched_enqueue")                                       \
      /* pid=task, other=parent, a=group, b=alt index */                      \
  X(kSchedSteal, 97, "sched_steal")                                           \
      /* pid=task, a=group, b=taking worker (kSchedExternalHelper: an         \
         external helper thread; kSchedDetDriver: the deterministic           \
         driver's thief coin) */                                              \
  X(kSchedRevoke, 98, "sched_revoke")                                         \
      /* pid=task, a=group, b=pages copied (0: pruned before it ever ran) */  \
  X(kSchedAdmitDefer, 99, "sched_admit_defer")                                \
      /* pid=requester, a=group, b=live worlds at defer */                    \
  /* Transport layer (src/dist: SimTransport / SocketTransport and the        \
     reliable channel riding on them). */                                     \
  X(kNetSend, 112, "net_send")  /* a=bytes, b=destination node */             \
  X(kNetDeliver, 113, "net_deliver")  /* a=bytes, b=source node */            \
  X(kNetRetransmit, 114, "net_retransmit")                                    \
      /* a=attempt # (1-based retry), b=RTO paid (ticks) */                   \
  X(kNetTimeout, 115, "net_timeout")                                          \
      /* a=attempts burned, b=0 retries exhausted / 1 per-request deadline    \
         expired */                                                           \
  X(kNetPeerSuspect, 116, "net_peer_suspect")                                 \
      /* a=peer node — heartbeats overdue */                                  \
  X(kNetPeerDead, 117, "net_peer_dead")                                       \
      /* a=peer node — declared dead, failover eligible */                    \
  X(kNetPartition, 118, "net_partition")                                      \
      /* a=from node, b=to node — frame blocked by a partition (LinkModel     \
         pair or "net.partition") */                                          \
  /* Hedged-speculation service (src/service: HedgedServer and friends). */   \
  X(kSvcRequest, 128, "svc_request")                                          \
      /* a=client node, b=request seq — executable arrival */                 \
  X(kSvcResponse, 129, "svc_response")                                        \
      /* a=client node, b=seq — OK response committed */                      \
  X(kSvcReplay, 130, "svc_replay")                                            \
      /* a=client node, b=seq — duplicate replayed from the session cache     \
         (no re-execution) */                                                 \
  X(kSvcShed, 131, "svc_shed")                                                \
      /* a=client node, b=admission queue depth at shed */                    \
  X(kSvcHedge, 132, "svc_hedge")                                              \
      /* a=ticket, b=backend node the hedge went to */                        \
  X(kSvcFailover, 133, "svc_failover")                                        \
      /* a=ticket, b=backend node taking over */                              \
  X(kSvcBrownout, 134, "svc_brownout")                                        \
      /* a=1 enter / 0 exit, b=defer-rate (permille) */                       \
  X(kSvcBreaker, 135, "svc_breaker")                                          \
      /* a=backend node, b=new state (0 closed, 1 open, 2 half-open) */       \
  X(kSvcLocalFallback, 136, "svc_local_fallback")                             \
      /* a=ticket — degraded to the local kPool race */                       \
  /* Hedged-service cluster layer (src/service/cluster.hpp). */               \
  X(kSvcClusterEvict, 137, "svc_cluster_evict")                               \
      /* a=node evicted from the ring, b=epoch after */                       \
  X(kSvcClusterRejoin, 138, "svc_cluster_rejoin")                             \
      /* a=node re-added after probation, b=epoch after */                    \
  X(kSvcClusterHandoff, 139, "svc_cluster_handoff")                           \
      /* a=peer node, b=sessions carried (send side) */                       \
  X(kSvcClusterMisroute, 140, "svc_cluster_misroute")                         \
      /* a=client, b=owner per the local ring — a request this node           \
         refused because it does not own the session */                       \
  /* Speculation policy (src/core/spec_policy.hpp). Emitted only in           \
     kAdaptive mode, so static-mode traces stay bit-for-bit unchanged.        \
     Values 141, 144 and 145 are retired (policy_width, policy_explore,       \
     policy_hedge) and must not be reused: old traces still carry them. */    \
  X(kPolicyOrder, 142, "policy_order")                                        \
      /* a=group, b=top-ranked position (0-based) */                          \
  X(kPolicyDefer, 143, "policy_defer")                                        \
      /* a=group, b=last-ranked ("deferred") position; for a vetoed           \
         or-parallel split, b=fanout refused */

/// Everything the runtime reports (generated from MW_TRACE_KINDS).
enum class EventKind : std::uint16_t {
#define MW_TRACE_KIND_ENUMERATOR(kind, value, name) kind = value,
  MW_TRACE_KINDS(MW_TRACE_KIND_ENUMERATOR)
#undef MW_TRACE_KIND_ENUMERATOR
};

/// Every kind, in table order.
inline constexpr EventKind kAllKinds[] = {
#define MW_TRACE_KIND_LIST(kind, value, name) EventKind::kind,
    MW_TRACE_KINDS(MW_TRACE_KIND_LIST)
#undef MW_TRACE_KIND_LIST
};

/// One past the largest kind value: per-kind tables indexed by value.
inline constexpr std::size_t kKindSlots = [] {
  std::size_t top = 0;
  for (EventKind k : kAllKinds)
    if (static_cast<std::size_t>(k) > top) top = static_cast<std::size_t>(k);
  return top + 1;
}();

/// Sentinel for "the emitter had no clock in scope"; the event still
/// carries its global sequence number, which is the authoritative order.
inline constexpr VTime kNoTraceTime = -1;

/// One fixed-size binary record. 48 bytes; the whole ring is one flat
/// allocation, so drop-oldest is a modulo store, never a shift.
struct TraceEvent {
  std::uint64_t seq = 0;   // global total order (allocation order)
  VTime t = kNoTraceTime;  // virtual ticks; kNoTraceTime if unknown
  std::uint64_t a = 0;     // kind-specific payload (see EventKind)
  std::uint64_t b = 0;     // kind-specific payload
  Pid pid = kNoPid;        // primary process/world
  Pid other = kNoPid;      // secondary process/world (parent, child, ...)
  EventKind kind{};
  std::uint16_t tid = 0;   // small per-thread id of the emitting thread
  std::uint32_t pad = 0;
};
static_assert(sizeof(TraceEvent) == 48, "records are fixed-size binary");

/// True iff events would be recorded right now. One relaxed atomic load —
/// this is the entire cost of a disabled instrumentation site.
bool enabled();

/// Master switch. Enabling starts recording into per-thread rings;
/// disabling stops recording but keeps buffered events for collect().
void set_enabled(bool on);

/// Ring capacity (events per emitting thread) applied to rings created
/// *after* the call; rounded up to a power of two (minimum 2) so the
/// ring index is a mask. Default 1 << 16. Call before set_enabled(true).
void set_ring_capacity(std::size_t events);

/// Emits one event, stamped with the calling thread's trace clock (see
/// set_now) unless `t` is given explicitly. Callable even when disabled
/// (it is then a no-op) — but prefer the MW_TRACE_EVENT macro, which
/// compiles out entirely under -DMW_TRACE=OFF.
void emit(EventKind kind, Pid pid = kNoPid, Pid other = kNoPid,
          std::uint64_t a = 0, std::uint64_t b = 0, VTime t = kNoTraceTime);

/// Sets the calling thread's trace clock: the timestamp attached to
/// subsequent emits that do not pass an explicit time. The DES-driven
/// layers (SpecRuntime, Supervisor) call this as their virtual clock
/// advances; wall-clock backends leave it unset.
void set_now(VTime t);
VTime now();

/// Snapshot of every ring, merged and sorted by seq. Does not clear.
std::vector<TraceEvent> collect();

/// collect() + clear all rings and the dropped counter.
std::vector<TraceEvent> drain();

/// Events overwritten because some ring was full (drop-oldest), plus
/// events discarded because a thread's ring could not be registered.
std::uint64_t dropped();

/// Total events ever emitted (recorded + dropped) since the last drain().
std::uint64_t emitted();

/// Clears all rings and counters; tracing enablement is unchanged.
void reset();

/// RAII enable/disable — benches and tests bracket a region with this.
class Scope {
 public:
  explicit Scope(bool on = true) : prev_(enabled()) { set_enabled(on); }
  ~Scope() { set_enabled(prev_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool prev_;
};

/// Human-readable kind name ("alt_sync", "page_copy", ...); "unknown" for
/// a value with no row in MW_TRACE_KINDS.
const char* kind_name(EventKind k);

}  // namespace mw::trace

// The instrumentation-site macro. Compiled out under -DMW_TRACE=OFF
// (cmake option MW_TRACE, which defines MW_TRACE_DISABLED); otherwise a
// relaxed load guards the call into the collector.
#if defined(MW_TRACE_DISABLED)
#define MW_TRACE_EVENT(...) \
  do {                      \
  } while (0)
#define MW_TRACE_SET_NOW(t) \
  do {                      \
  } while (0)
#else
#define MW_TRACE_EVENT(...)                            \
  do {                                                 \
    if (::mw::trace::enabled()) {                      \
      ::mw::trace::emit(__VA_ARGS__);                  \
    }                                                  \
  } while (0)
#define MW_TRACE_SET_NOW(t)                            \
  do {                                                 \
    if (::mw::trace::enabled()) {                      \
      ::mw::trace::set_now(t);                         \
    }                                                  \
  } while (0)
#endif
