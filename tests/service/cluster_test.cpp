// Cluster-layer tests on the deterministic SimTransport: ring placement,
// handoffs over the node's TransportChannel, and the safety rules
// (ownership, fencing, revocation, handoff + log reconciliation) end to
// end. The seeded chaos sweep lives in cluster_fault_matrix_test.cpp; the
// forked-process SIGKILL variant in cluster_socket_test.cpp.
#include <gtest/gtest.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "core/runtime_auditor.hpp"
#include "dist/sim_transport.hpp"
#include "service/cluster.hpp"
#include "util/des.hpp"

namespace mw {
namespace {

constexpr std::uint64_t kRingSeed = 7;
constexpr std::size_t kVnodes = 8;

LinkModel svc_link() {
  LinkModel l;
  l.latency = vt_us(500);
  l.per_message_overhead = vt_us(100);
  return l;
}

ClusterConfig cl_config(std::uint64_t svc_seed) {
  ClusterConfig c;
  c.seed = kRingSeed;  // identical on every node and on the router
  c.vnodes = kVnodes;
  c.peer_health = {.heartbeat_interval = vt_ms(5),
                   .suspect_after = vt_ms(15),
                   .dead_after = vt_ms(40)};
  c.probation = vt_ms(20);
  c.service.service_mean = vt_ms(1);
  c.service.hedge_delay = vt_ms(2);
  c.service.seed = svc_seed;
  return c;
}

/// Retry budget generous enough to ride out an eviction (dead_after 40ms
/// plus a beat) while rotating through the preference list.
ClientConfig routed_client() {
  ClientConfig cc;
  cc.retry_after = vt_ms(10);
  cc.max_retries = 6;
  cc.deadline = vt_ms(50);
  return cc;
}

/// N backend-less ClusterNodes (IDs 100+) on one SimTransport, sharing one
/// in-process EffectLog (the sim stand-in for the durable cluster log), and
/// a ClusterRouter for clients 200+.
struct SimCluster {
  explicit SimCluster(std::size_t n, std::uint64_t seed = 1,
                      std::size_t max_payload = kMaxFrameBytes)
      : transport(queue, svc_link(), seed, max_payload) {
    for (std::size_t i = 0; i < n; ++i) ids.push_back(NodeId(100 + i));
    for (std::size_t i = 0; i < n; ++i)
      nodes.push_back(std::make_unique<ClusterNode>(
          transport, ids[i], ids, effects, cl_config(seed + i)));
    router = std::make_unique<ClusterRouter>(ids, kRingSeed, kVnodes);
    transport.run_until(vt_ms(2));  // first beats
  }

  ServiceClient& client(NodeId node, ClientConfig cc = routed_client()) {
    clients.push_back(std::make_unique<ServiceClient>(transport, node, 0, cc));
    router->attach(*clients.back());
    return *clients.back();
  }

  ClusterNode& node(NodeId id) {
    for (auto& n : nodes)
      if (n->self() == id) return *n;
    ADD_FAILURE() << "no node " << id;
    return *nodes.front();
  }

  /// SIGKILL analogue: the node vanishes mid-run, no goodbye.
  void kill(NodeId id) {
    for (auto it = nodes.begin(); it != nodes.end(); ++it)
      if ((*it)->self() == id) {
        nodes.erase(it);
        return;
      }
  }

  /// Planned growth: construct the newcomer, then drive the same add on
  /// every incumbent and on the router (the operator's runbook step).
  void add_member(NodeId id, std::uint64_t svc_seed) {
    ids.push_back(id);
    for (auto& n : nodes) n->add_node(id);
    nodes.push_back(std::make_unique<ClusterNode>(transport, id, ids, effects,
                                                  cl_config(svc_seed)));
    router->add_node(id);
  }

  /// First candidate client ID >= 200 that `ring` assigns to `owner`.
  NodeId client_owned_by(const HashRing& ring, NodeId owner) {
    for (NodeId cand = 200; cand < 1200; ++cand)
      if (ring.owner_of(cand) == owner) return cand;
    return 0;
  }

  void run_for(VDuration d) { transport.run_until(transport.now() + d); }

  EventQueue queue;
  SimTransport transport;
  EffectLog effects;
  std::vector<NodeId> ids;
  std::vector<std::unique_ptr<ClusterNode>> nodes;
  std::unique_ptr<ClusterRouter> router;
  std::vector<std::unique_ptr<ServiceClient>> clients;
};

// ---------------------------------------------------------------------------
// HashRing units

TEST(HashRing, LayoutIsAPureFunctionOfSeedAndMembership) {
  HashRing a(42, 16), b(42, 16);
  a.add(1);
  a.add(2);
  a.add(3);
  b.add(3);  // different insertion order, same membership
  b.add(1);
  b.add(2);
  for (NodeId c = 0; c < 200; ++c) {
    EXPECT_EQ(a.owner_of(c), b.owner_of(c)) << "client " << c;
    EXPECT_EQ(a.preference(c), b.preference(c)) << "client " << c;
  }
  // A different seed is a different layout (for at least some clients).
  HashRing other(43, 16);
  other.add(1);
  other.add(2);
  other.add(3);
  std::size_t moved = 0;
  for (NodeId c = 0; c < 200; ++c)
    if (other.owner_of(c) != a.owner_of(c)) ++moved;
  EXPECT_GT(moved, 0u);
}

TEST(HashRing, RemovalOnlyMovesTheDepartedNodesClients) {
  HashRing r(kRingSeed, 32);
  for (NodeId n = 1; n <= 4; ++n) r.add(n);
  std::vector<NodeId> before;
  for (NodeId c = 0; c < 500; ++c) before.push_back(r.owner_of(c));
  ASSERT_TRUE(r.remove(3));
  std::size_t moved = 0;
  for (NodeId c = 0; c < 500; ++c) {
    const NodeId now = r.owner_of(c);
    if (before[c] == 3) {
      EXPECT_NE(now, 3u);
      ++moved;
    } else {
      // Consistent hashing's whole point: unrelated clients stay put.
      EXPECT_EQ(now, before[c]) << "client " << c;
    }
  }
  EXPECT_GT(moved, 0u);  // node 3 owned something, so something moved
}

TEST(HashRing, PreferenceListsEveryMemberOwnerFirst) {
  HashRing r(kRingSeed, kVnodes);
  r.add(100);
  r.add(101);
  r.add(102);
  for (NodeId c = 200; c < 232; ++c) {
    const std::vector<NodeId> pref = r.preference(c);
    ASSERT_EQ(pref.size(), 3u);
    EXPECT_EQ(pref[0], r.owner_of(c));
    EXPECT_NE(pref[0], pref[1]);
    EXPECT_NE(pref[1], pref[2]);
    EXPECT_NE(pref[0], pref[2]);
  }
  HashRing empty(kRingSeed, kVnodes);
  EXPECT_EQ(empty.owner_of(200), 0u);
  EXPECT_TRUE(empty.preference(200).empty());
}

// ---------------------------------------------------------------------------
// FileEffectLog (in-process; the forked-process version is in the socket test)

TEST(FileEffectLog, SharedFileRoundTripsAcrossWriters) {
  const std::string path =
      testing::TempDir() + "mw_cluster_effectlog_unit.bin";
  ::unlink(path.c_str());
  {
    FileEffectLog a(path, 1);
    FileEffectLog b(path, 2);
    ASSERT_TRUE(a.valid());
    ASSERT_TRUE(b.valid());
    Effect e1;
    e1.client = 200;
    e1.seq = 1;
    e1.value = 42;
    a.append(e1);
    EXPECT_EQ(a.size(), 1u);  // own writes visible immediately
    EXPECT_EQ(b.refresh(), 1u);
    ASSERT_EQ(b.entries().size(), 1u);
    EXPECT_EQ(b.entries()[0].client, 200u);
    EXPECT_EQ(b.entries()[0].value, 42u);
    Effect e2;
    e2.client = 201;
    e2.seq = 1;
    e2.value = 9;
    b.append(e2);
    EXPECT_EQ(a.refresh(), 1u);
    EXPECT_EQ(a.refresh(), 0u);  // idempotent: nothing new
    EXPECT_EQ(a.size(), 2u);
  }
  // A latecomer folds in the whole history at construction.
  FileEffectLog late(path, 3);
  EXPECT_EQ(late.size(), 2u);
  const std::vector<Effect> all = FileEffectLog::read_all(path);
  ASSERT_EQ(all.size(), 2u);
  EffectLog combined;
  for (const Effect& e : all) combined.append(e);
  EXPECT_EQ(combined.duplicates(), 0u);
  ::unlink(path.c_str());
}

// ---------------------------------------------------------------------------
// End-to-end on the sim

TEST(ClusterSim, ServesManyClientsExactlyOnceAcrossOwners) {
  SimCluster c(3);
  constexpr std::size_t kCallsEach = 5;
  std::vector<ServiceClient*> cls;
  for (NodeId id = 200; id < 206; ++id) {
    ServiceClient& cl = c.client(id);
    cl.on_complete = [&cl](const CallRecord&) {
      if (cl.records().size() < kCallsEach)
        cl.call(40 + cl.records().size(), cl.self());
    };
    cls.push_back(&cl);
    cl.call(40, id);
  }
  c.run_for(vt_ms(500));
  std::size_t total = 0;
  for (ServiceClient* cl : cls) {
    ASSERT_EQ(cl->records().size(), kCallsEach);
    for (const CallRecord& r : cl->records()) {
      EXPECT_TRUE(r.ok());
      EXPECT_EQ(r.value, service_reference(r.payload, r.work));
    }
    total += cl->records().size();
  }
  EXPECT_EQ(c.effects.size(), total);
  EXPECT_EQ(c.effects.duplicates(), 0u);
  // Router and nodes share one ring: with stable membership, nothing is
  // ever sent to a non-owner.
  for (auto& n : c.nodes) EXPECT_EQ(n->stats().misroutes, 0u);
}

TEST(ClusterSim, MisrouteIsShedAndRetriedAtTheOwnerWithTheSameSeq) {
  SimCluster c(3);
  ServiceClient& cl = c.client(200);
  // Sabotage the router: start one past the owner, so the first attempts
  // land on non-owners and only the rotation reaches the right node.
  cl.route = [&c](NodeId self, NodeId, std::size_t attempt) {
    const std::vector<NodeId> pref = c.router->ring().preference(self);
    return pref[(attempt + 1) % pref.size()];
  };
  cl.call(50, 200);
  c.run_for(vt_ms(100));
  ASSERT_EQ(cl.records().size(), 1u);
  const CallRecord& r = cl.records()[0];
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.value, service_reference(200, 50));
  EXPECT_GE(r.retries, 2u);  // two sheds before the rotation found the owner
  std::uint64_t misroutes = 0;
  for (auto& n : c.nodes) misroutes += n->stats().misroutes;
  EXPECT_GE(misroutes, 2u);
  EXPECT_EQ(c.effects.size(), 1u);  // the sheds never touched a session
  EXPECT_EQ(c.effects.duplicates(), 0u);
}

TEST(ClusterSim, NodeDeathEvictsAndCommittedWorkReplaysFromTheLog) {
  RuntimeAuditor auditor;
  {
    SimCluster c(3);
    const NodeId victim = c.ids[0];
    const NodeId cid = c.client_owned_by(c.router->ring(), victim);
    ASSERT_NE(cid, 0u);
    ServiceClient& cl = c.client(cid);
    cl.call(60, cid);
    c.run_for(vt_ms(50));
    ASSERT_EQ(cl.records().size(), 1u);
    ASSERT_TRUE(cl.records()[0].ok());
    const std::uint64_t seq = cl.records()[0].seq;

    c.kill(victim);
    c.run_for(vt_ms(150));  // dead_after + beat slack
    for (auto& n : c.nodes) {
      EXPECT_FALSE(n->ring().contains(victim));
      EXPECT_GE(n->stats().evictions, 1u);
    }
    const NodeId new_owner = c.nodes[0]->ring().owner_of(cid);
    ASSERT_NE(new_owner, victim);
    ASSERT_NE(new_owner, 0u);

    // A late duplicate of the seq the DEAD node committed arrives at the
    // new owner. The corpse never handed anything off — the shared log is
    // the only witness, and it must answer with a replay, not a re-run.
    SvcRequest dup;
    dup.client = cid;
    dup.seq = seq;
    dup.deadline = vt_ms(50);
    dup.work = 60;
    dup.payload = cid;
    const Bytes frame = encode_request(dup);
    c.transport.send(cid, new_owner,
                     std::span<const std::uint8_t>(frame.data(), frame.size()));
    c.run_for(vt_ms(20));
    EXPECT_EQ(c.node(new_owner).stats().log_replays, 1u);
    EXPECT_EQ(c.effects.size(), 1u);  // still exactly one effect

    // Fresh calls route around the corpse: silence at the old owner, then
    // the preference rotation lands on the survivor.
    cl.call(61, cid);
    c.run_for(vt_ms(200));
    ASSERT_EQ(cl.records().size(), 2u);
    EXPECT_TRUE(cl.records()[1].ok());
    EXPECT_EQ(cl.records()[1].value, service_reference(cid, 61));
    EXPECT_GE(cl.records()[1].retries, 1u);
    EXPECT_EQ(c.effects.size(), 2u);
    EXPECT_EQ(c.effects.duplicates(), 0u);
  }
  const ProcessTable empty;
  const AuditReport report = auditor.run(empty);
  EXPECT_EQ(report.leaked_pages, 0u)
      << "cluster teardown leaked runtime pages";
}

TEST(ClusterSim, PlannedGrowthHandsOffSessionsAndSettlesAcks) {
  SimCluster c(2);
  // Pick clients that will belong to the newcomer once it joins, so the
  // rebalance provably moves their sessions.
  HashRing after(kRingSeed, kVnodes);
  after.add(100);
  after.add(101);
  after.add(102);
  std::vector<NodeId> movers;
  for (NodeId cand = 200; movers.size() < 3 && cand < 1200; ++cand)
    if (after.owner_of(cand) == 102) movers.push_back(cand);
  ASSERT_EQ(movers.size(), 3u);

  std::vector<ServiceClient*> cls;
  for (NodeId m : movers) {
    ServiceClient& cl = c.client(m);
    cls.push_back(&cl);
    cl.call(40, m);
  }
  c.run_for(vt_ms(50));
  for (ServiceClient* cl : cls) {
    ASSERT_EQ(cl->records().size(), 1u);
    ASSERT_TRUE(cl->records()[0].ok());
  }

  c.add_member(102, 99);
  c.run_for(vt_ms(100));

  // The movers' sessions crossed: absorbed at 102, erased at the old
  // owners, and the channel acked every handoff.
  EXPECT_GE(c.node(102).stats().handoffs_received, 1u);
  std::uint64_t sent = 0, delivered = 0;
  for (auto& n : c.nodes) {
    sent += n->stats().handoffs_sent;
    delivered += n->stats().handoffs_delivered;
  }
  EXPECT_GE(sent, 1u);
  EXPECT_EQ(delivered, sent);
  for (NodeId m : movers) {
    EXPECT_NE(c.node(102).server().sessions().find(m), nullptr);
    EXPECT_EQ(c.node(100).server().sessions().find(m), nullptr);
    EXPECT_EQ(c.node(101).server().sessions().find(m), nullptr);
  }

  // Life after the move: the absorbed session admits the next seq at the
  // new owner, and the cluster-wide count stays exactly-once.
  for (ServiceClient* cl : cls) cl->call(41, cl->self());
  c.run_for(vt_ms(100));
  for (ServiceClient* cl : cls) {
    ASSERT_EQ(cl->records().size(), 2u);
    EXPECT_TRUE(cl->records()[1].ok());
    EXPECT_EQ(cl->records()[1].value, service_reference(cl->self(), 41));
  }
  EXPECT_GE(c.node(102).server().stats().ok, 3u);
  EXPECT_EQ(c.effects.size(), 6u);
  EXPECT_EQ(c.effects.duplicates(), 0u);
}

/// Clients >= `first` that node 100 owns in the 2-node ring and 102 owns
/// once it joins: exactly the sessions 100 must hand to the newcomer.
std::vector<NodeId> movers_to_102(std::size_t n, NodeId first) {
  HashRing before(kRingSeed, kVnodes), after(kRingSeed, kVnodes);
  for (NodeId id : {100, 101}) {
    before.add(id);
    after.add(id);
  }
  after.add(102);
  std::vector<NodeId> out;
  for (NodeId cand = first; out.size() < n; ++cand)
    if (before.owner_of(cand) == 100 && after.owner_of(cand) == 102)
      out.push_back(cand);
  return out;
}

/// Gives each client a committed seq 1 in node 100's session table. The
/// effects go to a scratch log, so only a handoff can carry the sessions.
void seed_sessions(SimCluster& c, const std::vector<NodeId>& clients) {
  EffectLog scratch;
  SessionTable& table = c.node(100).server().sessions();
  for (NodeId cl : clients) {
    ASSERT_EQ(table.begin(cl, 1), SessionVerdict::kExecute);
    table.commit(cl, 1, SvcStatus::kOk, service_reference(cl, 40), scratch);
  }
}

TEST(ClusterSim, PlannedGrowthHandsTenThousandSessionsOverInOneEpoch) {
  SimCluster c(2);
  const std::vector<NodeId> movers = movers_to_102(10000, 10000);
  seed_sessions(c, movers);
  const std::uint64_t epoch = c.node(100).epoch();

  c.add_member(102, 99);
  EXPECT_EQ(c.node(100).epoch(), epoch + 1);
  c.run_for(vt_ms(100));

  // One ring change, one multi-fragment channel transfer, fully acked.
  const ClusterStats& s = c.node(100).stats();
  EXPECT_EQ(s.handoffs_sent, 1u);
  EXPECT_EQ(s.handoffs_delivered, s.handoffs_sent);
  EXPECT_EQ(s.handoffs_failed, 0u);
  EXPECT_EQ(c.node(102).stats().handoffs_received, 1u);
  for (NodeId m : movers) {
    ASSERT_NE(c.node(102).server().sessions().find(m), nullptr) << m;
    ASSERT_EQ(c.node(100).server().sessions().find(m), nullptr) << m;
  }
}

TEST(ClusterSim, HandoffAboveTheChannelLimitFailsAndTheLogStillAnswers) {
  // 4 KiB frames cap a channel message at 64 x (4096 - 21) B, about 5,200
  // sessions, so 100's handoff of 6,003 is refused up front.
  SimCluster c(2, 1, /*max_payload=*/4096);
  const std::vector<NodeId> movers = movers_to_102(3, 200);
  std::vector<ServiceClient*> cls;
  for (NodeId m : movers) {
    ServiceClient& cl = c.client(m);
    cls.push_back(&cl);
    cl.call(40, m);
  }
  c.run_for(vt_ms(50));
  for (ServiceClient* cl : cls) {
    ASSERT_EQ(cl->records().size(), 1u);
    ASSERT_TRUE(cl->records()[0].ok());
  }
  seed_sessions(c, movers_to_102(6000, 100000));

  c.add_member(102, 99);
  c.run_for(vt_ms(100));
  const ClusterStats& s = c.node(100).stats();
  EXPECT_EQ(s.handoffs_sent, 1u);
  EXPECT_EQ(s.handoffs_failed, 1u);
  EXPECT_EQ(s.handoffs_delivered, 0u);
  EXPECT_EQ(c.node(102).stats().handoffs_received, 0u);

  // Nothing is resent: the shared log answers for the lost sessions, so
  // the moved clients' next calls run once at the new owner.
  for (ServiceClient* cl : cls) cl->call(41, cl->self());
  c.run_for(vt_ms(100));
  for (ServiceClient* cl : cls) {
    ASSERT_EQ(cl->records().size(), 2u);
    EXPECT_TRUE(cl->records()[1].ok());
    EXPECT_EQ(cl->records()[1].value, service_reference(cl->self(), 41));
  }
  EXPECT_GE(c.node(102).server().stats().ok, 3u);
  EXPECT_EQ(c.effects.size(), 6u);
  EXPECT_EQ(c.effects.duplicates(), 0u);
}

TEST(ClusterSim, PlannedShrinkHandoffReachesSurvivorsThatDroppedTheLeaver) {
  SimCluster c(3);
  constexpr NodeId kLeaver = 102;
  std::vector<ServiceClient*> cls;
  for (NodeId cand = 200; cls.size() < 3 && cand < 1200; ++cand) {
    if (c.router->owner_of(cand) != kLeaver) continue;
    ServiceClient& cl = c.client(cand);
    cls.push_back(&cl);
    cl.call(40, cand);
  }
  ASSERT_EQ(cls.size(), 3u);
  c.run_for(vt_ms(50));
  std::vector<std::uint64_t> requests;
  for (auto& n : c.nodes) requests.push_back(n->server().stats().requests);

  // The survivors forget the leaver before its handoff is even sent.
  for (NodeId id : {100, 101}) c.node(id).remove_node(kLeaver);
  c.node(kLeaver).remove_node(kLeaver);
  c.router->remove_node(kLeaver);
  c.run_for(vt_ms(100));

  const ClusterStats& s = c.node(kLeaver).stats();
  EXPECT_GE(s.handoffs_sent, 1u);
  EXPECT_EQ(s.handoffs_delivered, s.handoffs_sent);
  EXPECT_EQ(c.node(100).stats().handoffs_received +
                c.node(101).stats().handoffs_received,
            s.handoffs_sent);
  for (ServiceClient* cl : cls) {
    const NodeId owner = c.router->owner_of(cl->self());
    EXPECT_NE(c.node(owner).server().sessions().find(cl->self()), nullptr);
  }
  // Heartbeats, handoff fragments and acks flowed, but no client did: a
  // channel frame never reaches a server as a request.
  for (std::size_t i = 0; i < c.nodes.size(); ++i)
    EXPECT_EQ(c.nodes[i]->server().stats().requests, requests[i]);
}

TEST(ClusterSim, PlannedShrinkLeaverStopsWatchingOnceItsHandoffsSettle) {
  SimCluster c(3);
  constexpr NodeId kLeaver = 102;
  std::size_t owned = 0;
  for (NodeId cand = 200; owned < 3 && cand < 1200; ++cand) {
    if (c.router->owner_of(cand) != kLeaver) continue;
    c.client(cand).call(40, cand);
    ++owned;
  }
  ASSERT_EQ(owned, 3u);
  c.run_for(vt_ms(50));

  for (NodeId id : {100, 101}) c.node(id).remove_node(kLeaver);
  ClusterNode& leaver = c.node(kLeaver);
  leaver.remove_node(kLeaver);
  c.router->remove_node(kLeaver);
  const ClusterStats& s = leaver.stats();
  ASSERT_GE(s.handoffs_sent, 1u);
  VDuration waited = 0;
  while (s.handoffs_delivered + s.handoffs_failed < s.handoffs_sent &&
         waited < vt_ms(200)) {
    c.run_for(vt_ms(1));
    waited += vt_ms(1);
  }
  ASSERT_EQ(s.handoffs_delivered, s.handoffs_sent);
  const std::uint64_t beats = leaver.channel_stats().heartbeats_sent;

  // One second past remove_node(self): the survivors have long forgotten
  // the leaver, and it has forgotten them — no beat, no eviction, no fence.
  c.run_for(vt_ms(1000) - waited);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_FALSE(leaver.fenced());
  EXPECT_EQ(leaver.channel_stats().heartbeats_sent, beats);
  EXPECT_EQ(leaver.ring().size(), 2u);
}

TEST(ClusterSim, MinorityPartitionFencesThenHealsWithProbation) {
  SimCluster c(3);
  const NodeId a = c.ids[0], b = c.ids[1], d = c.ids[2];
  const NodeId cid = c.client_owned_by(c.router->ring(), a);
  ASSERT_NE(cid, 0u);

  // Cut a off from both peers (node links only — clients still reach it).
  for (NodeId p : {b, d}) {
    c.transport.set_link_blocked(a, p, true);
    c.transport.set_link_blocked(p, a, true);
  }
  c.run_for(vt_ms(120));  // both sides pass dead_after and settle
  EXPECT_TRUE(c.node(a).fenced());
  EXPECT_FALSE(c.node(b).fenced());
  EXPECT_FALSE(c.node(d).fenced());
  EXPECT_EQ(c.node(b).ring().size(), 2u);

  // The fenced minority sheds its own client; the majority serves it.
  ServiceClient& cl = c.client(cid);
  cl.call(70, cid);
  c.run_for(vt_ms(100));
  ASSERT_EQ(cl.records().size(), 1u);
  EXPECT_TRUE(cl.records()[0].ok());
  EXPECT_EQ(cl.records()[0].value, service_reference(cid, 70));
  EXPECT_GE(c.node(a).stats().fence_sheds, 1u);
  EXPECT_EQ(c.effects.size(), 1u);

  // Heal. Both sides must wait out probation before the ring churns back,
  // then the survivor hands cid's session home to a.
  for (NodeId p : {b, d}) {
    c.transport.set_link_blocked(a, p, false);
    c.transport.set_link_blocked(p, a, false);
  }
  c.run_for(vt_ms(200));
  EXPECT_FALSE(c.node(a).fenced());
  for (auto& n : c.nodes) EXPECT_EQ(n->ring().size(), 3u);
  EXPECT_GE(c.node(b).stats().rejoins + c.node(d).stats().rejoins, 1u);
  EXPECT_NE(c.node(a).server().sessions().find(cid), nullptr);

  // And a now serves its client again, duplicate-free end to end.
  cl.call(71, cid);
  c.run_for(vt_ms(100));
  ASSERT_EQ(cl.records().size(), 2u);
  EXPECT_TRUE(cl.records()[1].ok());
  EXPECT_EQ(cl.records()[1].value, service_reference(cid, 71));
  EXPECT_GE(c.node(a).server().stats().ok, 1u);
  EXPECT_EQ(c.effects.size(), 2u);
  EXPECT_EQ(c.effects.duplicates(), 0u);
}

}  // namespace
}  // namespace mw
