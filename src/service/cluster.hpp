// The hedged-service cluster (ROADMAP's "scale the hedged service out"):
// N HedgedServer nodes behind consistent-hash session routing, with the
// exactly-once guarantee surviving re-routing. The paper's multiple-worlds
// framing extends one level up — which *node* owns which session is just
// another scheduling policy (the or-parallel splitting-strategies catalogue,
// PAPERS.md arXiv:1301.7690), and like every policy here it comes with an
// explicit, testable transfer protocol. docs/CLUSTER.md is the operations
// manual for this file.
//
// Placement: a seeded consistent-hash ring over client IDs (HashRing,
// `vnodes` virtual points per node). Every participant — each ClusterNode
// and the client-side ClusterRouter — builds the same ring from the same
// (seed, vnodes, membership), so ownership is a pure function and no
// placement traffic exists. Membership changes move only the departed or
// arrived node's ranges; everything else stays put.
//
// Safety rules, outermost first (the ClusterFaultMatrix drives all four):
//
//   1. Ownership — a node serves a request only for clients its *current*
//      ring assigns to it. Anything else is answered kShed and traced as a
//      misroute; the client's router treats that shed as a re-route hint
//      and retries the SAME seq at its next preference, so the session
//      layer (not a new seq) absorbs the duplicate.
//   2. Fencing — a node that can see at most half of the configured
//      membership assumes it is the partitioned minority: it sheds all
//      traffic and revokes every pending request WITHOUT committing. The
//      majority side serves; split-brain double-execution is fenced off.
//      (The per-node HedgedServer still degrades to its local kPool race
//      when its *backends* are partitioned away — fencing is about peer
//      nodes, degradation about executors.)
//   3. Revocation — when a ring change moves a client away mid-flight, the
//      old owner sheds that pending uncommitted (HedgedServer::
//      shed_pendings_if). Committing after losing ownership could race the
//      new owner into a double execution.
//   4. Handoff + reconciliation — planned moves (rejoin after probation,
//      add_node/remove_node) send an MWSES01 snapshot of the moved
//      sessions to the new owner over the node's TransportChannel, which
//      fragments, acks, retries and deduplicates it; SessionTable::absorb
//      is idempotent and monotone, so a reordered handoff is a no-op. A
//      handoff that fails (retry budget spent, or an image above the
//      channel's max_message_bytes()) is counted, never resent: like a
//      node's *death*, which cannot hand anything off, it leaves the
//      shared EffectLog as the witness. The new owner redoes that log
//      (SessionTable::reconcile), which holds every committed effect
//      cluster-wide; and every node checks arriving (client, seq) pairs
//      against the log so a retry of an effect committed elsewhere replays
//      the logged value instead of re-executing.
//
// Node-to-node traffic (handoffs and peer-liveness heartbeats) rides the
// channel; client requests and responses stay raw datagrams, because the
// session layer must see their duplicates. The channel's frame tags sit
// above the service protocol's, so on_message routes by the first byte.
//
// The ring is eventually consistent — there is deliberately no consensus
// layer. Rules 1–4 close every window the fault matrix drives (drop, dup,
// delay, SIGKILL, rebalance); the residual exposure and its tuning are
// documented in docs/CLUSTER.md ("Failure modes").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "dist/transport_channel.hpp"
#include "service/hedged_server.hpp"
#include "service/service.hpp"
#include "service/service_client.hpp"

namespace mw {

/// Seeded consistent-hash ring: `vnodes` virtual points per member, keyed
/// by (hash, node) so the layout is a pure function of (seed, membership)
/// — independent of insertion order, identical on every participant.
class HashRing {
 public:
  explicit HashRing(std::uint64_t seed = 1, std::size_t vnodes = 16)
      : seed_(seed), vnodes_(vnodes < 1 ? 1 : vnodes) {}

  void add(NodeId node);
  bool remove(NodeId node);
  bool contains(NodeId node) const { return members_.count(node) != 0; }
  std::size_t size() const { return members_.size(); }
  const std::set<NodeId>& members() const { return members_; }

  /// The member owning `client`'s sessions; 0 when the ring is empty.
  NodeId owner_of(NodeId client) const;

  /// Every member, in clockwise order from the client's hash point: the
  /// owner first, then the fallbacks a router should try on silence or
  /// shed. Deterministic per (seed, membership, client).
  std::vector<NodeId> preference(NodeId client) const;

 private:
  std::uint64_t point(NodeId node, std::size_t replica) const;
  std::uint64_t key_of(NodeId client) const;

  std::uint64_t seed_;
  std::size_t vnodes_;
  // (hash, node) -> node. The pair key makes 64-bit point collisions
  // deterministic instead of insertion-order-dependent.
  std::map<std::pair<std::uint64_t, NodeId>, NodeId> ring_;
  std::set<NodeId> members_;
};

struct ClusterConfig {
  std::uint64_t seed = 1;      // ring seed — identical cluster-wide
  std::size_t vnodes = 16;     // virtual points per node
  /// Node-to-node liveness: the channel beats every peer at
  /// heartbeat_interval and evicts one silent past dead_after.
  PeerHealthConfig peer_health{.heartbeat_interval = vt_ms(10),
                               .suspect_after = vt_ms(40),
                               .dead_after = vt_ms(120)};
  /// Breaker-style resurrection: a dead peer heard from again must stay
  /// alive this long before it rejoins the ring (half-open probation — a
  /// flapping node must not churn ownership on every beat).
  VDuration probation = vt_ms(60);
  bool fencing = true;  // minority partitions shed instead of serving
  ServiceConfig service;  // per-node HedgedServer configuration
};

struct ClusterStats {
  std::uint64_t misroutes = 0;      // requests refused as non-owner
  std::uint64_t fence_sheds = 0;    // requests refused while fenced
  std::uint64_t evictions = 0;      // peers dropped from the ring
  std::uint64_t rejoins = 0;        // peers re-added after probation
  std::uint64_t handoffs_sent = 0;
  std::uint64_t handoffs_delivered = 0;  // every fragment acked
  std::uint64_t handoffs_failed = 0;     // retries spent, or image too big
  std::uint64_t handoffs_received = 0;
  std::uint64_t log_replays = 0;    // answered from the cluster-wide log
  std::uint64_t reconciles = 0;     // EffectLog redo passes
  std::uint64_t revoked = 0;        // pendings shed uncommitted
};

/// One cluster member: interposes on the node's transport binding ahead of
/// its TransportChannel and its embedded HedgedServer, enforcing the safety
/// rules above before any request reaches the service. Single-threaded on
/// the transport's driver thread, like everything on the seam.
class ClusterNode : public TransportReceiver {
 public:
  /// `members` is the configured universe (all node IDs, self included) —
  /// the fencing denominator. All start presumed alive; the channel's
  /// heartbeats settle reality. `effects` is the cluster-shared durable
  /// sink: one EffectLog object shared by every node in-process (sim), or
  /// a FileEffectLog over one shared file across processes (socket).
  ClusterNode(Transport& transport, NodeId self,
              const std::vector<NodeId>& members, EffectLog& effects,
              ClusterConfig config = {});
  ~ClusterNode() override;

  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  NodeId self() const { return self_; }
  HedgedServer& server() { return server_; }
  const HedgedServer& server() const { return server_; }
  const HashRing& ring() const { return ring_; }
  std::uint64_t epoch() const { return epoch_; }
  bool fenced() const { return fenced_; }
  const ClusterStats& stats() const { return stats_; }
  bool owns(NodeId client) const { return ring_.owner_of(client) == self_; }

  /// Planned rebalance: grow or shrink the ring (and the fencing
  /// universe). The caller drives the same call on every participant;
  /// sessions moving away from this node are handed off immediately.
  /// Removing this node itself is a planned departure: it stops watching
  /// each survivor once its handoff there is delivered or failed.
  void add_node(NodeId node);
  void remove_node(NodeId node);

  /// The peer channel's counters (frames, retries, heartbeats).
  const TransportChannel::Stats& channel_stats() const {
    return channel_.stats();
  }

  void on_message(NodeId from, std::span<const std::uint8_t> payload) override;

 private:
  void handle_request_frame(NodeId from, const SvcRequest& r,
                            std::span<const std::uint8_t> payload);
  /// The channel's PeerHealth transitions: evict the dead, put the
  /// resurrected on probation.
  void on_peer(NodeId peer, PeerState state);
  void cancel_probation(NodeId peer);
  void evict(NodeId peer);
  void rejoin(NodeId peer);
  /// Revokes + hands off everything this node holds but no longer owns;
  /// `leaving`: this node departs, and forgets each peer once its handoff
  /// settles (handoff_settled).
  void hand_off_lost_sessions(bool leaving = false);
  void handoff_settled(NodeId peer);
  void update_fence();
  void reconcile_from_log();
  void advance_log_index();
  void respond_direct(NodeId client, std::uint64_t seq, SvcStatus status,
                      std::uint64_t value, std::uint8_t flags);

  Transport& transport_;
  NodeId self_;
  ClusterConfig config_;
  EffectLog& effects_;
  HashRing ring_;
  std::set<NodeId> members_;  // configured universe (fencing denominator)
  std::uint64_t epoch_ = 0;   // bumped on every local ring change
  bool fenced_ = false;
  std::map<NodeId, TimerId> probation_;  // peer -> its rejoin timer
  std::set<NodeId> handing_off_;  // a leaver's peers with a handoff in flight
  // Cluster-wide (client, seq) -> value index over the shared EffectLog,
  // advanced incrementally — the admission-time replay check.
  std::map<std::pair<NodeId, std::uint64_t>, std::uint64_t> log_index_;
  std::size_t log_seen_ = 0;
  ClusterStats stats_;
  // The channel binds first, the server re-binds over it, and the ctor
  // re-binds this node over both; on_message hands each its frames.
  TransportChannel channel_;
  HedgedServer server_;
};

/// Client-side placement: the same seeded ring, attached to a
/// ServiceClient as its routing hook. The owner is tried first; silence or
/// a shed rotates through the client's preference list with the same seq.
class ClusterRouter {
 public:
  explicit ClusterRouter(const std::vector<NodeId>& members,
                         std::uint64_t seed = 1, std::size_t vnodes = 16);

  const HashRing& ring() const { return ring_; }
  NodeId owner_of(NodeId client) const { return ring_.owner_of(client); }
  void add_node(NodeId node) { ring_.add(node); }
  void remove_node(NodeId node) { ring_.remove(node); }

  void attach(ServiceClient& client);

 private:
  HashRing ring_;
};

/// Cross-process durable effect sink for the socket-backend cluster:
/// fixed 32-byte records (writer, client, seq, value) appended with one
/// O_APPEND write() each — atomic on local filesystems — so a SIGKILLed
/// server's committed effects survive for the survivors' reconcile and for
/// the harness's cluster-wide duplicates() check. refresh() folds in
/// records sibling processes appended since the last call (own records are
/// skipped: they entered the in-memory view at append() time).
class FileEffectLog : public EffectLog {
 public:
  FileEffectLog(const std::string& path, NodeId writer);
  ~FileEffectLog() override;

  bool valid() const { return fd_ >= 0; }
  void append(const Effect& e) override;
  std::size_t refresh() override;

  /// Every record in the file, every writer — the harness's cluster-wide
  /// view for EffectLog::duplicates().
  static std::vector<Effect> read_all(const std::string& path);

 private:
  int fd_ = -1;
  NodeId writer_ = 0;
  std::size_t read_offset_ = 0;  // file bytes already folded in
};

}  // namespace mw
