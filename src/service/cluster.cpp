#include "service/cluster.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>

#include "trace/trace.hpp"

namespace mw {

namespace {

// splitmix64 finalizer: every input bit affects every output bit, so
// client IDs and virtual-node indices spread uniformly over the ring no
// matter how sequential they are.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

// ---------------------------------------------------------------------------
// HashRing

std::uint64_t HashRing::point(NodeId node, std::size_t replica) const {
  return mix64(seed_ ^ mix64(node) ^ mix64(replica * 0x100000001b3ull));
}

std::uint64_t HashRing::key_of(NodeId client) const {
  return mix64(seed_ ^ mix64(client));
}

void HashRing::add(NodeId node) {
  if (!members_.insert(node).second) return;
  for (std::size_t r = 0; r < vnodes_; ++r)
    ring_.emplace(std::make_pair(point(node, r), node), node);
}

bool HashRing::remove(NodeId node) {
  if (members_.erase(node) == 0) return false;
  for (auto it = ring_.begin(); it != ring_.end();) {
    if (it->second == node)
      it = ring_.erase(it);
    else
      ++it;
  }
  return true;
}

NodeId HashRing::owner_of(NodeId client) const {
  if (ring_.empty()) return 0;
  auto it = ring_.lower_bound(std::make_pair(key_of(client), NodeId{0}));
  if (it == ring_.end()) it = ring_.begin();  // wrap
  return it->second;
}

std::vector<NodeId> HashRing::preference(NodeId client) const {
  std::vector<NodeId> out;
  if (ring_.empty()) return out;
  auto it = ring_.lower_bound(std::make_pair(key_of(client), NodeId{0}));
  for (std::size_t seen = 0; seen < ring_.size() && out.size() < members_.size();
       ++seen) {
    if (it == ring_.end()) it = ring_.begin();
    if (std::find(out.begin(), out.end(), it->second) == out.end())
      out.push_back(it->second);
    ++it;
  }
  return out;
}

// ---------------------------------------------------------------------------
// ClusterNode

ClusterNode::ClusterNode(Transport& transport, NodeId self,
                         const std::vector<NodeId>& members,
                         EffectLog& effects, ClusterConfig config)
    : transport_(transport),
      self_(self),
      config_(config),
      effects_(effects),
      ring_(config.seed, config.vnodes),
      channel_(transport, self, RetryPolicy{}, config.peer_health,
               config.seed),
      server_(transport, self, effects, config.service) {
  for (NodeId m : members) {
    members_.insert(m);
    ring_.add(m);
    if (m != self_) channel_.watch_peer(m);
  }
  channel_.set_handler([this](NodeId, const Bytes& image) {
    if (server_.sessions().absorb(image)) ++stats_.handoffs_received;
  });
  // The channel and the server bound themselves in their ctors; interpose
  // ahead of both so every frame passes the cluster rules first.
  transport_.bind(self_, *this);
  update_fence();
  // Restart path: whatever the cluster committed while this node was down
  // (or in a previous life) must replay, not re-execute.
  effects_.refresh();
  reconcile_from_log();
  channel_.enable_heartbeats(
      [this](NodeId peer, PeerState state) { on_peer(peer, state); });
}

ClusterNode::~ClusterNode() {
  for (const auto& [peer, timer] : probation_) transport_.cancel(timer);
  transport_.unbind(self_);
  // server_'s and channel_'s dtors run next and unbind again — harmlessly
  // idempotent; the channel's cancels its own timers.
}

void ClusterNode::on_message(NodeId from,
                             std::span<const std::uint8_t> payload) {
  if (svc_message_tag(payload) == kSvcTagRequest) {
    if (auto r = decode_request(payload))
      handle_request_frame(from, *r, payload);
  } else if (TransportChannel::is_channel_frame(payload)) {
    // By tag, not by sender: a departing node's handoff arrives after the
    // survivors have already removed it from members_.
    channel_.on_message(from, payload);
  } else {
    server_.on_message(from, payload);
  }
}

void ClusterNode::handle_request_frame(NodeId from, const SvcRequest& r,
                                       std::span<const std::uint8_t> payload) {
  if (fenced_) {
    // Minority side of a partition: serving here risks committing what the
    // majority's new owner is also executing. Shed; the client routes on.
    ++stats_.fence_sheds;
    respond_direct(r.client, r.seq, SvcStatus::kShed, 0, 0);
    return;
  }
  const NodeId owner = ring_.owner_of(r.client);
  if (owner != self_) {
    ++stats_.misroutes;
    MW_TRACE_EVENT(trace::EventKind::kSvcClusterMisroute, kNoPid, kNoPid,
                   r.client, owner, transport_.now());
    respond_direct(r.client, r.seq, SvcStatus::kShed, 0, 0);
    return;
  }
  // Cluster-wide replay check: an effect committed by ANY node (found via
  // the shared log) answers a retry from cache, never re-executes. The
  // refresh matters on the socket backend, where sibling processes appended
  // to the shared file since this node last looked; on the sim's shared
  // in-memory log it is a no-op.
  effects_.refresh();
  advance_log_index();
  auto it = log_index_.find({r.client, r.seq});
  if (it != log_index_.end()) {
    ++stats_.log_replays;
    MW_TRACE_EVENT(trace::EventKind::kSvcReplay, kNoPid, kNoPid, r.client,
                   r.seq, transport_.now());
    respond_direct(r.client, r.seq, SvcStatus::kOk, it->second,
                   kSvcFlagReplayed);
    return;
  }
  server_.on_message(from, payload);
}

void ClusterNode::on_peer(NodeId peer, PeerState state) {
  if (state != PeerState::kAlive) {
    cancel_probation(peer);  // relapsed: wait for the next recovery
    if (state == PeerState::kDead && ring_.contains(peer)) evict(peer);
    return;
  }
  if (ring_.contains(peer) || !members_.count(peer)) return;
  // Resurrection: half-open probation before the ring churns.
  probation_[peer] = transport_.schedule(config_.probation, [this, peer] {
    probation_.erase(peer);
    // Silent since the last health check: let its transition decide.
    if (channel_.health().state(peer, transport_.now()) == PeerState::kAlive)
      rejoin(peer);
  });
}

void ClusterNode::cancel_probation(NodeId peer) {
  auto it = probation_.find(peer);
  if (it == probation_.end()) return;
  transport_.cancel(it->second);
  probation_.erase(it);
}

void ClusterNode::evict(NodeId peer) {
  ring_.remove(peer);
  ++epoch_;
  ++stats_.evictions;
  MW_TRACE_EVENT(trace::EventKind::kSvcClusterEvict, kNoPid, kNoPid, peer,
                 epoch_, transport_.now());
  update_fence();
  if (!fenced_) {
    // This node may have just inherited the dead peer's ranges: redo the
    // shared log so the inherited clients' committed effects replay.
    effects_.refresh();
    reconcile_from_log();
  }
}

void ClusterNode::rejoin(NodeId peer) {
  ring_.add(peer);
  ++epoch_;
  ++stats_.rejoins;
  MW_TRACE_EVENT(trace::EventKind::kSvcClusterRejoin, kNoPid, kNoPid, peer,
                 epoch_, transport_.now());
  update_fence();
  hand_off_lost_sessions();
  if (!fenced_) {
    effects_.refresh();
    reconcile_from_log();
  }
}

void ClusterNode::handoff_settled(NodeId peer) {
  if (handing_off_.erase(peer) > 0) channel_.forget_peer(peer);
}

void ClusterNode::hand_off_lost_sessions(bool leaving) {
  // Revoke first, uncommitted: finishing a pending for a client this node
  // no longer owns could race the new owner into a double execution.
  stats_.revoked += server_.shed_pendings_if(
      [this](NodeId client) { return ring_.owner_of(client) != self_; });
  for (NodeId m : ring_.members()) {
    if (m == self_) continue;
    auto owned_by_m = [this, m](NodeId client) {
      return ring_.owner_of(client) == m;
    };
    Bytes image = server_.sessions().snapshot_clients(owned_by_m);
    const std::size_t carried = server_.sessions().erase_clients(owned_by_m);
    if (carried == 0) continue;
    ++stats_.handoffs_sent;
    MW_TRACE_EVENT(trace::EventKind::kSvcClusterHandoff, kNoPid, kNoPid, m,
                   carried, transport_.now());
    // Never resent: a lost handoff leaves the shared log as the witness,
    // exactly as a node death does (rule 4).
    if (leaving) handing_off_.insert(m);
    if (!channel_.send(m, std::move(image),
                       [this, m] {
                         ++stats_.handoffs_delivered;
                         handoff_settled(m);
                       },
                       [this, m] {
                         ++stats_.handoffs_failed;
                         handoff_settled(m);
                       })) {
      ++stats_.handoffs_failed;  // above max_message_bytes()
      handing_off_.erase(m);
    }
  }
}

void ClusterNode::update_fence() {
  const bool was = fenced_;
  fenced_ = config_.fencing && members_.size() > 1 &&
            ring_.size() * 2 <= members_.size();
  if (fenced_ && !was) {
    // Entering the minority: everything in flight is revoked uncommitted.
    stats_.revoked +=
        server_.shed_pendings_if([](NodeId) { return true; });
  } else if (!fenced_ && was) {
    // Back in the majority: catch up on what the others committed.
    effects_.refresh();
    reconcile_from_log();
  }
}

void ClusterNode::reconcile_from_log() {
  ++stats_.reconciles;
  server_.sessions().reconcile(effects_);
  // reconcile() materializes a session for every client in the log —
  // cluster-wide. Keep only the ones this ring assigns here; the log (and
  // the admission-time index over it) still answers for everyone else.
  // Safe because every churn path sheds non-owned pendings before calling
  // this, so no live execution references a pruned session.
  server_.sessions().erase_clients(
      [this](NodeId client) { return ring_.owner_of(client) != self_; });
  advance_log_index();
}

void ClusterNode::advance_log_index() {
  const std::vector<Effect>& entries = effects_.entries();
  for (; log_seen_ < entries.size(); ++log_seen_) {
    const Effect& e = entries[log_seen_];
    log_index_.emplace(std::make_pair(e.client, e.seq), e.value);
  }
}

void ClusterNode::respond_direct(NodeId client, std::uint64_t seq,
                                 SvcStatus status, std::uint64_t value,
                                 std::uint8_t flags) {
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

void ClusterNode::add_node(NodeId node) {
  members_.insert(node);
  if (node == self_) return;
  channel_.watch_peer(node);
  if (!ring_.contains(node)) rejoin(node);
}

void ClusterNode::remove_node(NodeId node) {
  members_.erase(node);
  if (node != self_) channel_.forget_peer(node);
  cancel_probation(node);
  if (!ring_.contains(node)) {
    update_fence();
    return;
  }
  ring_.remove(node);
  ++epoch_;
  MW_TRACE_EVENT(trace::EventKind::kSvcClusterEvict, kNoPid, kNoPid, node,
                 epoch_, transport_.now());
  if (node == self_) {
    // Planned departure: everything this node holds moves to the
    // survivors, shed-then-handoff, before traffic stops arriving. It
    // watches a survivor only until its handoff there settles: the
    // survivors forget the leaver, and their silence must not read as
    // death here (evictions, then a fence) or draw beats.
    hand_off_lost_sessions(/*leaving=*/true);
    update_fence();
    for (NodeId m : members_)
      if (!handing_off_.contains(m)) channel_.forget_peer(m);
    return;
  }
  ++stats_.evictions;
  update_fence();
  if (!fenced_) {
    effects_.refresh();
    reconcile_from_log();
  }
}

// ---------------------------------------------------------------------------
// ClusterRouter

ClusterRouter::ClusterRouter(const std::vector<NodeId>& members,
                             std::uint64_t seed, std::size_t vnodes)
    : ring_(seed, vnodes) {
  for (NodeId m : members) ring_.add(m);
}

void ClusterRouter::attach(ServiceClient& client) {
  client.route = [this](NodeId self, NodeId /*current*/,
                        std::size_t attempt) -> NodeId {
    const std::vector<NodeId> pref = ring_.preference(self);
    if (pref.empty()) return 0;
    return pref[attempt % pref.size()];
  };
  client.set_server(ring_.owner_of(client.self()));
}

// ---------------------------------------------------------------------------
// FileEffectLog

namespace {

constexpr std::size_t kEffectRecordBytes = 32;

void put_le64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t get_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

FileEffectLog::FileEffectLog(const std::string& path, NodeId writer)
    : writer_(writer) {
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  refresh();  // fold in whatever predecessors already committed
}

FileEffectLog::~FileEffectLog() {
  if (fd_ >= 0) ::close(fd_);
}

void FileEffectLog::append(const Effect& e) {
  if (fd_ >= 0) {
    std::uint8_t rec[kEffectRecordBytes];
    put_le64(rec + 0, writer_);
    put_le64(rec + 8, e.client);
    put_le64(rec + 16, e.seq);
    put_le64(rec + 24, e.value);
    // One O_APPEND write per record: atomic on local filesystems, so a
    // SIGKILL between records never tears the log.
    [[maybe_unused]] ssize_t n = ::write(fd_, rec, kEffectRecordBytes);
  }
  EffectLog::append(e);
}

std::size_t FileEffectLog::refresh() {
  if (fd_ < 0) return 0;
  std::size_t folded = 0;
  std::uint8_t rec[kEffectRecordBytes];
  for (;;) {
    const ssize_t n = ::pread(fd_, rec, kEffectRecordBytes,
                              static_cast<off_t>(read_offset_));
    if (n < static_cast<ssize_t>(kEffectRecordBytes)) break;
    read_offset_ += kEffectRecordBytes;
    const NodeId writer = get_le64(rec + 0);
    if (writer == writer_) continue;  // ours: appended live already
    Effect e;
    e.client = get_le64(rec + 8);
    e.seq = get_le64(rec + 16);
    e.value = get_le64(rec + 24);
    entries_.push_back(e);
    ++folded;
  }
  return folded;
}

std::vector<Effect> FileEffectLog::read_all(const std::string& path) {
  std::vector<Effect> out;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return out;
  std::uint8_t rec[kEffectRecordBytes];
  off_t off = 0;
  for (;;) {
    const ssize_t n = ::pread(fd, rec, kEffectRecordBytes, off);
    if (n < static_cast<ssize_t>(kEffectRecordBytes)) break;
    off += kEffectRecordBytes;
    Effect e;
    e.client = get_le64(rec + 8);
    e.seq = get_le64(rec + 16);
    e.value = get_le64(rec + 24);
    out.push_back(e);
  }
  ::close(fd);
  return out;
}

}  // namespace mw
