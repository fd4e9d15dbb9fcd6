#include "service/hedged_server.hpp"

#include <algorithm>
#include <string>

#include "core/replicate.hpp"
#include "trace/trace.hpp"

namespace mw {

namespace {

RuntimeConfig local_runtime_config(const ServiceConfig& c) {
  RuntimeConfig rc;
  rc.backend = AltBackend::kPool;
  rc.page_size = c.page_size;
  rc.num_pages = c.num_pages;
  rc.seed = c.seed;
  rc.pool = c.pool;
  return rc;
}

}  // namespace

HedgedServer::HedgedServer(Transport& transport, NodeId self,
                           EffectLog& effects, ServiceConfig config)
    : transport_(transport),
      self_(self),
      effects_(effects),
      config_(config),
      health_(config.health),
      rng_(config.seed ^ 0x73766373727672ull),  // "svcsrvr"
      runtime_(local_runtime_config(config)) {
  transport_.bind(self_, *this);
  health_timer_ = transport_.schedule(config_.health.heartbeat_interval,
                                      [this] { health_tick(); });
  brownout_timer_ = transport_.schedule(config_.brownout_window,
                                        [this] { brownout_tick(); });
}

HedgedServer::~HedgedServer() {
  closed_ = true;
  for (auto& [ticket, p] : pendings_) {
    if (p.hedge_timer != kNoTimer) transport_.cancel(p.hedge_timer);
    if (p.deadline_timer != kNoTimer) transport_.cancel(p.deadline_timer);
    if (p.local_timer != kNoTimer) transport_.cancel(p.local_timer);
  }
  if (health_timer_ != kNoTimer) transport_.cancel(health_timer_);
  if (brownout_timer_ != kNoTimer) transport_.cancel(brownout_timer_);
  transport_.unbind(self_);
}

void HedgedServer::add_backend(NodeId node) {
  if (backend_set_.insert(node).second) {
    backends_.push_back(node);
    breakers_.emplace(node, CircuitBreaker(config_.breaker));
    health_.watch(node, transport_.now());
  }
}

void HedgedServer::on_message(NodeId from,
                              std::span<const std::uint8_t> payload) {
  if (closed_) return;
  if (backend_set_.count(from)) health_.heard_from(from, transport_.now());
  switch (svc_message_tag(payload)) {
    case kSvcTagRequest:
      if (auto r = decode_request(payload)) handle_request(*r);
      break;
    case kSvcTagExecDone:
      if (auto d = decode_exec_done(payload)) handle_exec_done(from, *d);
      break;
    case kSvcTagBeat:
      break;  // liveness only, consumed above
    default:
      break;  // foreign or truncated frame: the transport is unreliable
  }
}

void HedgedServer::handle_request(const SvcRequest& r) {
  ++stats_.requests;
  const VTime now = transport_.now();
  switch (sessions_.peek(r.client, r.seq)) {
    case SessionVerdict::kReplay: {
      sessions_.begin(r.client, r.seq);  // counts the replay
      const SessionTable::Session* s = sessions_.find(r.client);
      ++stats_.replays;
      MW_TRACE_EVENT(trace::EventKind::kSvcReplay, kNoPid, kNoPid, r.client,
                     r.seq, now);
      respond(r.client, r.seq, s->status, s->value,
              static_cast<std::uint8_t>(kSvcFlagReplayed));
      return;
    }
    case SessionVerdict::kInFlight:
      // The pending execution's response answers this retry too.
      ++stats_.in_flight_dups;
      return;
    case SessionVerdict::kStale:
      ++stats_.stale;
      respond(r.client, r.seq, SvcStatus::kStale, 0, 0);
      return;
    case SessionVerdict::kExecute:
      break;
  }

  // Admission. Shedding must precede begin(): a shed request leaves no
  // session trace, so the client's retry of the same seq is still fresh.
  const bool must_queue = inflight_ >= config_.max_inflight;
  if (must_queue && queue_.size() >= config_.queue_capacity) {
    ++stats_.shed;
    MW_TRACE_EVENT(trace::EventKind::kSvcShed, kNoPid, kNoPid, r.client,
                   queue_.size(), now);
    respond(r.client, r.seq, SvcStatus::kShed, 0, 0);
    return;
  }

  sessions_.begin(r.client, r.seq);
  ++stats_.admitted;
  ++window_admitted_;
  MW_TRACE_EVENT(trace::EventKind::kSvcRequest, kNoPid, kNoPid, r.client,
                 r.seq, now);

  const std::uint64_t ticket = next_ticket_++;
  Pending p;
  p.ticket = ticket;
  p.client = r.client;
  p.seq = r.seq;
  p.work = r.work;
  p.payload = r.payload;
  p.deadline_abs =
      now + (r.deadline > 0 ? r.deadline : config_.default_deadline);
  pendings_.emplace(ticket, std::move(p));

  if (must_queue) {
    queue_.push_back(ticket);
    ++stats_.queued;
    ++window_deferred_;
    stats_.queue_peak = std::max(stats_.queue_peak, queue_.size());
    return;
  }
  dispatch(ticket);
}

void HedgedServer::dispatch(std::uint64_t ticket) {
  auto it = pendings_.find(ticket);
  if (it == pendings_.end()) return;
  Pending& p = it->second;
  const VTime now = transport_.now();
  if (now >= p.deadline_abs) {  // expired while queued
    finish(ticket, SvcStatus::kFailed, 0, 0);
    return;
  }
  p.dispatched = true;
  ++inflight_;
  p.deadline_timer = transport_.schedule(
      p.deadline_abs - now, [this, ticket] { on_deadline(ticket); });

  const NodeId backend =
      backends_.empty() ? 0 : pick_backend(p.outstanding, false);
  if (backend != 0 && dispatch_remote(p, backend)) {
    if (!brownout_ && config_.hedge_budget > 0)
      p.hedge_timer = transport_.schedule(
          config_.hedge_delay,
          [this, ticket] { on_hedge_timer(ticket); });
    return;
  }
  if (!backends_.empty()) {
    // Every backend dead, broken, or unreachable: transport_race's
    // finish-locally move — degraded latency, never a wrong answer.
    ++stats_.local_fallbacks;
    MW_TRACE_EVENT(trace::EventKind::kSvcLocalFallback, kNoPid, kNoPid,
                   ticket, 0, now);
  }
  run_local(p);
}

bool HedgedServer::dispatch_remote(Pending& p, NodeId backend) {
  SvcExec e;
  e.ticket = p.ticket;
  e.work = p.work;
  e.payload = p.payload;
  e.budget = p.deadline_abs - transport_.now();
  const Bytes frame = encode_exec(e);
  if (!transport_.send(self_, backend,
                       std::span<const std::uint8_t>(frame.data(),
                                                     frame.size()))) {
    auto b = breakers_.find(backend);
    if (b != breakers_.end() && b->second.record_failure(transport_.now())) {
      ++stats_.breaker_opens;
      MW_TRACE_EVENT(trace::EventKind::kSvcBreaker, kNoPid, kNoPid, backend,
                     static_cast<std::uint64_t>(BreakerState::kOpen),
                     transport_.now());
    }
    return false;
  }
  p.outstanding.push_back(backend);
  if (std::find(p.tried.begin(), p.tried.end(), backend) == p.tried.end())
    p.tried.push_back(backend);
  return true;
}

void HedgedServer::run_local(Pending& p) {
  ++stats_.local_races;
  p.local = true;
  const int k = brownout_ ? 1 : std::max(1, config_.local_replicas);
  const std::uint64_t work = p.work;
  const std::uint64_t payload = p.payload;
  World root = runtime_.make_root("svc-" + std::to_string(p.ticket));
  ReplicateOptions opts;
  opts.stagger_priority = config_.stagger_priority;
  auto res = replicate<std::uint64_t>(
      runtime_, root,
      [work, payload](AltContext&, int) {
        return service_reference(payload, work);
      },
      k, opts);
  p.local_ok = res.value.has_value();
  p.local_value = res.value.value_or(0);
  const std::uint64_t ticket = p.ticket;
  p.local_timer = transport_.schedule(
      draw_service_delay(), [this, ticket] { on_local_done(ticket); });
}

void HedgedServer::on_local_done(std::uint64_t ticket) {
  auto it = pendings_.find(ticket);
  if (it == pendings_.end()) return;
  it->second.local_timer = kNoTimer;
  if (it->second.local_ok) {
    finish(ticket, SvcStatus::kOk, it->second.local_value, kSvcFlagLocal);
  } else {
    finish(ticket, SvcStatus::kFailed, 0, kSvcFlagLocal);
  }
}

void HedgedServer::on_hedge_timer(std::uint64_t ticket) {
  auto it = pendings_.find(ticket);
  if (it == pendings_.end()) return;
  Pending& p = it->second;
  p.hedge_timer = kNoTimer;
  if (brownout_ || p.local || p.hedges_used >= config_.hedge_budget) return;
  const NodeId backend = pick_backend(p.tried, true);
  if (backend == 0) return;  // nobody healthy enough to hedge at
  if (!dispatch_remote(p, backend)) return;
  ++p.hedges_used;
  ++stats_.hedges;
  MW_TRACE_EVENT(trace::EventKind::kSvcHedge, kNoPid, kNoPid, ticket,
                 backend, transport_.now());
  if (p.hedges_used < config_.hedge_budget)
    p.hedge_timer = transport_.schedule(
        config_.hedge_delay,
        [this, ticket] { on_hedge_timer(ticket); });
}

void HedgedServer::handle_exec_done(NodeId from, const SvcExecDone& d) {
  auto b = breakers_.find(from);
  if (b != breakers_.end()) b->second.record_success();
  auto it = pendings_.find(d.ticket);
  if (it == pendings_.end()) return;  // late answer: already finished
  finish(d.ticket, SvcStatus::kOk, d.value, 0);
}

void HedgedServer::on_deadline(std::uint64_t ticket) {
  auto it = pendings_.find(ticket);
  if (it == pendings_.end()) return;
  Pending& p = it->second;
  p.deadline_timer = kNoTimer;
  // Attempts still outstanding at the deadline are failures the breaker
  // should know about — a backend that never answers is indistinguishable
  // from a dead one at this granularity.
  for (NodeId backend : p.outstanding) {
    auto b = breakers_.find(backend);
    if (b != breakers_.end() && b->second.record_failure(transport_.now())) {
      ++stats_.breaker_opens;
      MW_TRACE_EVENT(trace::EventKind::kSvcBreaker, kNoPid, kNoPid, backend,
                     static_cast<std::uint64_t>(BreakerState::kOpen),
                     transport_.now());
    }
  }
  finish(ticket, SvcStatus::kFailed, 0, 0);
}

void HedgedServer::handle_backend_failure(NodeId backend) {
  std::vector<std::uint64_t> affected;
  for (const auto& [ticket, p] : pendings_)
    if (std::find(p.outstanding.begin(), p.outstanding.end(), backend) !=
        p.outstanding.end())
      affected.push_back(ticket);
  for (std::uint64_t ticket : affected) {
    auto it = pendings_.find(ticket);
    if (it == pendings_.end()) continue;
    Pending& p = it->second;
    p.outstanding.erase(
        std::remove(p.outstanding.begin(), p.outstanding.end(), backend),
        p.outstanding.end());
    if (p.outstanding.empty() && !p.local) fail_over(p);
  }
}

void HedgedServer::fail_over(Pending& p) {
  const std::uint64_t ticket = p.ticket;
  while (p.retries_used < config_.retry_budget) {
    const NodeId backend = pick_backend(p.tried, false);
    const NodeId fresh = backend != 0 ? backend : pick_backend({}, false);
    if (fresh == 0) break;
    ++p.retries_used;
    if (!dispatch_remote(p, fresh)) continue;
    ++stats_.failovers;
    MW_TRACE_EVENT(trace::EventKind::kSvcFailover, kNoPid, kNoPid, ticket,
                   fresh, transport_.now());
    return;
  }
  // Budget burned or nobody left: graceful degradation.
  ++stats_.local_fallbacks;
  MW_TRACE_EVENT(trace::EventKind::kSvcLocalFallback, kNoPid, kNoPid, ticket,
                 0, transport_.now());
  run_local(p);
}

void HedgedServer::finish(std::uint64_t ticket, SvcStatus status,
                          std::uint64_t value, std::uint8_t flags) {
  auto it = pendings_.find(ticket);
  if (it == pendings_.end()) return;
  Pending p = std::move(it->second);
  pendings_.erase(it);
  if (p.hedge_timer != kNoTimer) transport_.cancel(p.hedge_timer);
  if (p.deadline_timer != kNoTimer) transport_.cancel(p.deadline_timer);
  if (p.local_timer != kNoTimer) transport_.cancel(p.local_timer);
  if (p.dispatched) {
    --inflight_;
  } else {
    auto q = std::find(queue_.begin(), queue_.end(), ticket);
    if (q != queue_.end()) queue_.erase(q);
  }

  sessions_.commit(p.client, p.seq, status, value, effects_);
  if (status == SvcStatus::kOk) {
    ++stats_.ok;
    MW_TRACE_EVENT(trace::EventKind::kSvcResponse, kNoPid, kNoPid, p.client,
                   p.seq, transport_.now());
  } else {
    ++stats_.failed;
  }
  respond(p.client, p.seq, status, value, flags);
  pump_queue();
}

std::size_t HedgedServer::shed_pendings_if(
    const std::function<bool(NodeId)>& pred) {
  std::vector<std::uint64_t> affected;
  for (const auto& [ticket, p] : pendings_)
    if (pred(p.client)) affected.push_back(ticket);
  for (std::uint64_t ticket : affected) {
    auto it = pendings_.find(ticket);
    if (it == pendings_.end()) continue;
    Pending p = std::move(it->second);
    pendings_.erase(it);
    if (p.hedge_timer != kNoTimer) transport_.cancel(p.hedge_timer);
    if (p.deadline_timer != kNoTimer) transport_.cancel(p.deadline_timer);
    if (p.local_timer != kNoTimer) transport_.cancel(p.local_timer);
    if (p.dispatched) {
      --inflight_;
    } else {
      auto q = std::find(queue_.begin(), queue_.end(), ticket);
      if (q != queue_.end()) queue_.erase(q);
    }
    ++stats_.shed;
    MW_TRACE_EVENT(trace::EventKind::kSvcShed, kNoPid, kNoPid, p.client,
                   queue_.size(), transport_.now());
    respond(p.client, p.seq, SvcStatus::kShed, 0, 0);
  }
  if (!affected.empty()) pump_queue();
  return affected.size();
}

void HedgedServer::respond(NodeId client, std::uint64_t seq, SvcStatus status,
                           std::uint64_t value, std::uint8_t flags) {
  SvcResponse r;
  r.client = client;
  r.seq = seq;
  r.status = status;
  r.value = value;
  r.flags = flags;
  const Bytes frame = encode_response(r);
  transport_.send(self_, client,
                  std::span<const std::uint8_t>(frame.data(), frame.size()));
}

void HedgedServer::pump_queue() {
  if (pumping_) return;
  pumping_ = true;
  while (inflight_ < config_.max_inflight && !queue_.empty()) {
    const std::uint64_t ticket = queue_.front();
    queue_.pop_front();
    dispatch(ticket);
  }
  pumping_ = false;
}

void HedgedServer::health_tick() {
  if (closed_) return;
  for (const PeerHealth::Transition& t : health_.check(transport_.now())) {
    auto b = breakers_.find(t.peer);
    if (b == breakers_.end()) continue;
    if (t.state == PeerState::kDead) {
      if (b->second.on_peer_dead(transport_.now())) {
        ++stats_.breaker_opens;
        MW_TRACE_EVENT(trace::EventKind::kSvcBreaker, kNoPid, kNoPid, t.peer,
                       static_cast<std::uint64_t>(BreakerState::kOpen),
                       transport_.now());
      }
      handle_backend_failure(t.peer);
    } else if (t.state == PeerState::kAlive) {
      // Resurrection: better evidence than the cooldown timer — arm the
      // half-open probe immediately.
      b->second.on_peer_resurrected();
      MW_TRACE_EVENT(trace::EventKind::kSvcBreaker, kNoPid, kNoPid, t.peer,
                     static_cast<std::uint64_t>(b->second.state(
                         transport_.now())),
                     transport_.now());
    }
  }
  health_timer_ = transport_.schedule(config_.health.heartbeat_interval,
                                      [this] { health_tick(); });
}

void HedgedServer::brownout_tick() {
  if (closed_) return;
  std::uint64_t deferred = window_deferred_;
  if (stats_.local_races > 0) {
    // Scheduler admission deferrals count toward the pressure signal; the
    // guard keeps an idle (purely remote) server from spawning the pool.
    const std::uint64_t total = runtime_.scheduler().stats()
                                    .admission_deferred;
    deferred += total - sched_deferred_seen_;
    sched_deferred_seen_ = total;
  }
  const double rate =
      window_admitted_ > 0
          ? static_cast<double>(deferred) /
                static_cast<double>(window_admitted_)
          : 0.0;
  const auto permille = static_cast<std::uint64_t>(rate * 1000.0);
  if (!brownout_ && window_admitted_ > 0 && rate > config_.brownout_enter) {
    brownout_ = true;
    ++stats_.brownout_enters;
    MW_TRACE_EVENT(trace::EventKind::kSvcBrownout, kNoPid, kNoPid, 1,
                   permille, transport_.now());
  } else if (brownout_ && rate < config_.brownout_exit) {
    brownout_ = false;
    ++stats_.brownout_exits;
    MW_TRACE_EVENT(trace::EventKind::kSvcBrownout, kNoPid, kNoPid, 0,
                   permille, transport_.now());
  }
  window_admitted_ = 0;
  window_deferred_ = 0;
  brownout_timer_ = transport_.schedule(config_.brownout_window,
                                        [this] { brownout_tick(); });
}

NodeId HedgedServer::pick_backend(const std::vector<NodeId>& exclude,
                                  bool hedge) {
  const VTime now = transport_.now();
  const std::size_t n = backends_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = (rr_ + i) % n;
    const NodeId b = backends_[idx];
    if (std::find(exclude.begin(), exclude.end(), b) != exclude.end())
      continue;
    const PeerState state = health_.state(b, now);
    if (state == PeerState::kDead) continue;
    auto br = breakers_.find(b);
    if (br == breakers_.end()) continue;
    if (hedge) {
      // Hedges only go to fully healthy peers: a suspect backend IS the
      // tail the hedge is trying to shave, and a half-open probe slot is
      // too precious to spend on speculative traffic.
      if (state != PeerState::kAlive ||
          br->second.state(now) != BreakerState::kClosed)
        continue;
    } else if (!br->second.allow(now)) {
      continue;
    }
    rr_ = idx + 1;
    return b;
  }
  return 0;
}

VDuration HedgedServer::draw_service_delay() {
  double d =
      rng_.next_exponential(static_cast<double>(config_.service_mean));
  if (rng_.next_bool(config_.tail_prob)) d *= config_.tail_factor;
  const auto v = static_cast<VDuration>(d);
  return v < 1 ? 1 : v;
}

bool HedgedServer::restore(const Bytes& image, const EffectLog& log) {
  if (!sessions_.restore(image)) return false;
  sessions_.reconcile(log);
  return true;
}

}  // namespace mw
