// HedgedServer: the production face of the paper's replication-×-speculation
// story (§5). One server node accepts numbered client requests and answers
// each one exactly once, while everything around it misbehaves. Four
// robustness layers, outermost first:
//
//   1. Sessions — every arriving (client, seq) passes the SessionTable
//      before any work happens: committed duplicates replay the cached
//      response, concurrent duplicates are dropped, stale numbers are
//      refused. The per-client EffectLedger + external EffectLog make the
//      committed effect exactly-once even across a server restart
//      (snapshot / restore / reconcile).
//   2. Admission — at most `max_inflight` requests execute concurrently; a
//      bounded FIFO absorbs bursts; overflow is *shed* with an explicit
//      kShed response (and untouched session state, so the retry is still
//      fresh). Deadlines propagate from the client and are re-checked at
//      dequeue. When the windowed defer rate (queueing + scheduler
//      admission deferrals) crosses `brownout_enter`, hedging is disabled
//      entirely — first replica only — until the rate falls below
//      `brownout_exit` (hysteresis). Shed-not-collapse is the contract
//      bench/service_load --check enforces.
//   3. Backends — with add_backend()ed executor nodes, each request is
//      sent to one backend and, after `hedge_delay` of silence, hedged to
//      another (budgeted). A per-backend CircuitBreaker driven by
//      PeerHealth gates routing: suspect peers take no hedges, dead peers
//      trip the breaker and fail running attempts over to a standby
//      (budgeted), a resurrected peer gets one half-open probe.
//   4. Degradation — when no backend is usable (total partition, all
//      breakers open), the request finishes on the server's own kPool
//      hedged race (transport_race's finish-locally move): slower, never
//      wrong, and still exactly-once.
//
// Without backends the server runs every request through the local race —
// replicate() on AltBackend::kPool with a stagger ladder — so the same
// binary serves as the single-node hedging service the bench loads.
//
// Single-threaded by construction, like everything on the Transport seam:
// all state changes happen on the thread driving the transport. "Crash"
// granularity for restart tests is therefore the event-loop turn.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/runtime.hpp"
#include "service/breaker.hpp"
#include "service/service.hpp"
#include "service/session.hpp"

namespace mw {

struct ServiceConfig {
  std::uint64_t seed = 1;
  PeerHealthConfig health;
  BreakerConfig breaker;

  // Admission.
  std::size_t max_inflight = 32;   // concurrently executing requests
  std::size_t queue_capacity = 64; // waiting room; overflow is shed
  VDuration default_deadline = vt_ms(50);

  // Hedging / failover budgets (per request).
  VDuration hedge_delay = vt_ms(2);
  std::size_t hedge_budget = 1;
  std::size_t retry_budget = 2;

  // Brownout hysteresis over `brownout_window` samples of the defer rate.
  double brownout_enter = 0.5;
  double brownout_exit = 0.2;
  VDuration brownout_window = vt_ms(20);

  // Service-time model for executions the server performs itself (and the
  // default for backends): exponential with a heavy tail — the tail is
  // what hedging exists to shave.
  VDuration service_mean = vt_ms(4);
  double tail_prob = 0.05;
  double tail_factor = 5.0;

  // Local kPool race: replicas per request (1 under brownout) and the
  // hedging ladder's priority stagger.
  int local_replicas = 2;
  double stagger_priority = 1.0;
  SchedConfig pool{.workers = 2};
  std::size_t page_size = 256;  // world geometry for the local races
  std::size_t num_pages = 16;
};

struct ServiceStats {
  std::uint64_t requests = 0;        // well-formed kSvcRequest frames
  std::uint64_t admitted = 0;        // began executing (or queued)
  std::uint64_t ok = 0;
  std::uint64_t replays = 0;
  std::uint64_t in_flight_dups = 0;  // dropped concurrent duplicates
  std::uint64_t stale = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;          // admitted but deadline-expired
  std::uint64_t queued = 0;          // admissions that had to wait
  std::uint64_t hedges = 0;
  std::uint64_t failovers = 0;
  std::uint64_t local_races = 0;     // requests finished on the local race
  std::uint64_t local_fallbacks = 0; // subset: backends existed, none usable
  std::uint64_t brownout_enters = 0;
  std::uint64_t brownout_exits = 0;
  std::uint64_t breaker_opens = 0;
  std::size_t queue_peak = 0;
};

class HedgedServer : public TransportReceiver {
 public:
  /// Binds to `self` on `transport`. `effects` is the external durable
  /// effect sink — it must outlive the server, and across a restart the
  /// *same* log is handed to the successor (that is the exactly-once
  /// test surface).
  HedgedServer(Transport& transport, NodeId self, EffectLog& effects,
               ServiceConfig config = {});
  ~HedgedServer() override;

  HedgedServer(const HedgedServer&) = delete;
  HedgedServer& operator=(const HedgedServer&) = delete;

  NodeId self() const { return self_; }

  /// Registers an executor node. Requests are routed (and hedged) across
  /// registered backends; with none, every request runs locally.
  void add_backend(NodeId node);
  const std::vector<NodeId>& backends() const { return backends_; }

  void on_message(NodeId from, std::span<const std::uint8_t> payload) override;

  /// Revokes every pending request whose client matches `pred` *without*
  /// committing: timers cancelled, admission bookkeeping unwound, the
  /// client answered kShed so it retries at the session's real owner. The
  /// cluster layer calls this when a ring change moves ownership away
  /// mid-flight — committing here could race the new owner into a double
  /// execution. Returns how many pendings were revoked.
  std::size_t shed_pendings_if(const std::function<bool(NodeId)>& pred);

  /// Session image for restart tests (take between event-loop turns).
  Bytes snapshot() const { return sessions_.snapshot(); }
  /// Reinstates a predecessor's snapshot and redo-applies the effect log
  /// (which may hold commits newer than the image). Call before serving.
  bool restore(const Bytes& image, const EffectLog& log);

  bool brownout() const { return brownout_; }
  std::size_t inflight() const { return inflight_; }
  std::size_t queue_depth() const { return queue_.size(); }
  const ServiceStats& stats() const { return stats_; }
  const SessionTable& sessions() const { return sessions_; }
  SessionTable& sessions() { return sessions_; }
  Runtime& runtime() { return runtime_; }

 private:
  struct Pending {
    std::uint64_t ticket = 0;
    NodeId client = 0;
    std::uint64_t seq = 0;
    std::uint64_t work = 0;
    std::uint64_t payload = 0;
    VTime deadline_abs = 0;
    bool dispatched = false;          // false while still queued
    bool local = false;               // finishing on the local race
    std::size_t hedges_used = 0;
    std::size_t retries_used = 0;
    std::vector<NodeId> tried;        // backends this request ever used
    std::vector<NodeId> outstanding;  // backends with a live attempt
    std::uint64_t local_value = 0;
    bool local_ok = false;
    TimerId hedge_timer = kNoTimer;
    TimerId deadline_timer = kNoTimer;
    TimerId local_timer = kNoTimer;
  };

  void handle_request(const SvcRequest& r);
  void handle_exec_done(NodeId from, const SvcExecDone& d);
  void dispatch(std::uint64_t ticket);
  /// Sends one kSvcExec attempt; false if the send could not even be
  /// attempted (the failure is recorded against the backend's breaker).
  bool dispatch_remote(Pending& p, NodeId backend);
  void run_local(Pending& p);
  void on_hedge_timer(std::uint64_t ticket);
  void on_deadline(std::uint64_t ticket);
  void on_local_done(std::uint64_t ticket);
  void handle_backend_failure(NodeId backend);
  void fail_over(Pending& p);
  void finish(std::uint64_t ticket, SvcStatus status, std::uint64_t value,
              std::uint8_t flags);
  void respond(NodeId client, std::uint64_t seq, SvcStatus status,
               std::uint64_t value, std::uint8_t flags);
  void pump_queue();
  void health_tick();
  void brownout_tick();
  /// First routable backend in round-robin order, excluding `exclude`;
  /// `hedge` restricts to fully healthy peers (alive + breaker closed).
  /// 0 = none (backend node ids must be nonzero).
  NodeId pick_backend(const std::vector<NodeId>& exclude, bool hedge);
  VDuration draw_service_delay();

  Transport& transport_;
  NodeId self_;
  EffectLog& effects_;
  ServiceConfig config_;
  SessionTable sessions_;
  PeerHealth health_;
  Rng rng_;
  Runtime runtime_;

  std::vector<NodeId> backends_;
  std::set<NodeId> backend_set_;
  std::map<NodeId, CircuitBreaker> breakers_;
  std::size_t rr_ = 0;  // round-robin cursor

  std::map<std::uint64_t, Pending> pendings_;
  std::deque<std::uint64_t> queue_;
  std::size_t inflight_ = 0;
  std::uint64_t next_ticket_ = 1;
  bool pumping_ = false;  // flattens finish() -> pump_queue() recursion
  TimerId health_timer_ = kNoTimer;
  TimerId brownout_timer_ = kNoTimer;

  bool brownout_ = false;
  std::uint64_t window_admitted_ = 0;
  std::uint64_t window_deferred_ = 0;
  std::uint64_t sched_deferred_seen_ = 0;

  ServiceStats stats_;
  bool closed_ = false;
};

}  // namespace mw
