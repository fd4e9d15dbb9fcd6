// ClusterFaultMatrix: the chaos sweep one level up from the service
// matrix. Per seed, a 4-node backend-less cluster lives through seeded
// message drops / duplications / delays, one unplanned node death (the
// SIGKILL analogue: the ClusterNode object vanishes mid-load), a planned
// grow (add_node) and a planned shrink (remove_node) — all under routed
// client load retrying the SAME seq across owners. The machine-checked
// invariants, per seed:
//
//   * exactly-once CLUSTER-WIDE: the shared EffectLog holds no duplicate
//     (client, seq) pair across every retry, re-route, eviction, handoff,
//     and log reconcile;
//   * correctness: every kOk response equals service_reference();
//   * every node drains and the RuntimeAuditor is clean;
//   * the same seed replays to the identical fault schedule and outcome.
//
// CI shards the sweep via MW_FAULT_SEED_BASE / MW_FAULT_SEED_COUNT, same
// contract as ServiceFaultMatrix. The forked-process variant with a real
// SIGKILL is cluster_socket_test.cpp.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/runtime_auditor.hpp"
#include "dist/sim_transport.hpp"
#include "fault/fault.hpp"
#include "service/cluster.hpp"
#include "util/des.hpp"

namespace mw {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t def) {
  const char* v = std::getenv(name);
  return v ? std::strtoull(v, nullptr, 10) : def;
}

constexpr std::uint64_t kRingSeed = 11;
constexpr std::size_t kVnodes = 8;

struct ClusterOutcome {
  std::uint64_t ok = 0;
  std::uint64_t answered = 0;
  std::uint64_t wrong_values = 0;
  std::size_t effects = 0;
  std::size_t effect_duplicates = 0;
  std::uint64_t session_replays = 0;  // per-node SessionTable replays
  std::uint64_t log_replays = 0;      // answered from the cluster-wide log
  std::uint64_t misroutes = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rejoins = 0;
  std::uint64_t handoffs_sent = 0;
  std::uint64_t handoffs_delivered = 0;
  std::uint64_t revoked = 0;
  std::uint64_t fence_sheds = 0;
  std::size_t leftover_pendings = 0;
  int leaked_pages = 0;
  std::uint64_t digest = 0;
  std::string log;
};

ClusterOutcome run_matrix(std::uint64_t seed) {
  ClusterOutcome out;
  RuntimeAuditor auditor;
  {
    FaultInjector inj(seed);
    // Beats ride the same faulty links as requests, so the rates must
    // leave liveness detectable: 8 consecutive beat losses (~0.04^8) would
    // be needed for a spurious eviction.
    inj.arm("net.drop",
            FaultSpec::with_probability(FaultKind::kDropMessage, 0.04));
    inj.arm("net.dup",
            FaultSpec::with_probability(FaultKind::kDuplicateMessage, 0.04));
    inj.arm("net.delay",
            FaultSpec::with_probability(FaultKind::kDelay, 0.06)
                .delayed(vt_ms(2)));
    FaultScope scope(inj);

    LinkModel link;
    link.latency = vt_us(500);
    link.per_message_overhead = vt_us(100);
    EventQueue queue;
    SimTransport transport(queue, link, seed);
    EffectLog effects;  // the cluster-shared durable sink

    auto node_config = [&](std::uint64_t svc_seed) {
      ClusterConfig c;
      c.seed = kRingSeed;
      c.vnodes = kVnodes;
      c.peer_health = {.heartbeat_interval = vt_ms(5),
                       .suspect_after = vt_ms(15),
                       .dead_after = vt_ms(40)};
      c.probation = vt_ms(20);
      c.service.seed = svc_seed;
      c.service.service_mean = vt_ms(1);
      c.service.hedge_delay = vt_ms(2);
      // Brownout couples the run to live scheduler counters, which are
      // thread-timing dependent; replay determinism wins here (same call
      // as the service matrix).
      c.service.brownout_enter = 1e9;
      return c;
    };

    std::vector<NodeId> ids{100, 101, 102, 103};
    std::vector<std::unique_ptr<ClusterNode>> nodes;
    for (std::size_t i = 0; i < ids.size(); ++i)
      nodes.push_back(std::make_unique<ClusterNode>(
          transport, ids[i], ids, effects, node_config(seed + i)));
    ClusterRouter router(ids, kRingSeed, kVnodes);

    auto node_by = [&](NodeId id) -> ClusterNode* {
      for (auto& n : nodes)
        if (n->self() == id) return n.get();
      return nullptr;
    };
    auto kill_node = [&](NodeId id) {
      for (auto it = nodes.begin(); it != nodes.end(); ++it)
        if ((*it)->self() == id) {
          nodes.erase(it);
          return;
        }
    };

    constexpr VTime kLoadUntil = vt_ms(600);
    ClientConfig cc;
    cc.retry_after = vt_ms(15);
    cc.max_retries = 8;  // enough to ride out an eviction window
    cc.deadline = vt_ms(100);
    std::vector<std::unique_ptr<ServiceClient>> clients;
    for (NodeId node = 200; node < 205; ++node) {
      clients.push_back(
          std::make_unique<ServiceClient>(transport, node, 0, cc));
      ServiceClient* cl = clients.back().get();
      router.attach(*cl);
      cl->on_complete = [cl, &transport](const CallRecord&) {
        if (transport.now() < kLoadUntil)
          cl->call(30 + cl->records().size() % 7, cl->self());
      };
    }
    transport.run_until(vt_ms(2));  // beats land
    for (auto& cl : clients) cl->call(30, cl->self());

    // Scripted chaos on top of the seeded noise.
    transport.run_until(vt_ms(150));
    kill_node(101);  // unplanned death: instant total silence, no handoff

    transport.run_until(vt_ms(300));
    // Planned grow: incumbents learn of 104, then it boots with the full
    // member list (it evicts the long-dead 101 on its own).
    ids.push_back(104);
    for (auto& n : nodes) n->add_node(104);
    nodes.push_back(std::make_unique<ClusterNode>(
        transport, 104, ids, effects, node_config(seed + 9)));
    router.add_node(104);

    transport.run_until(vt_ms(400));
    // Planned shrink: 103 hands its sessions off, then leaves for good
    // once the acks have had time to settle.
    for (auto& n : nodes) n->remove_node(103);
    router.remove_node(103);
    transport.run_until(vt_ms(450));
    kill_node(103);

    transport.run_until(kLoadUntil);

    // Drain: every client terminal, every node's server empty.
    auto all_idle = [&] {
      for (const auto& cl : clients)
        if (!cl->idle()) return false;
      return true;
    };
    while (!all_idle() && transport.now() < vt_sec(4))
      transport.run_until(transport.now() + vt_ms(10));
    transport.run_until(transport.now() + vt_ms(200));

    for (const auto& cl : clients) {
      for (const CallRecord& r : cl->records()) {
        if (r.answered) ++out.answered;
        if (r.status != SvcStatus::kOk || !r.answered) continue;
        ++out.ok;
        if (r.value != service_reference(r.payload, r.work))
          ++out.wrong_values;
      }
    }
    out.effects = effects.size();
    out.effect_duplicates = effects.duplicates();
    for (NodeId id : {NodeId(100), NodeId(102), NodeId(104)}) {
      ClusterNode* n = node_by(id);
      if (n == nullptr) {
        ADD_FAILURE() << "seed=" << seed << ": survivor " << id << " missing";
        continue;
      }
      out.session_replays += n->server().stats().replays;
      out.log_replays += n->stats().log_replays;
      out.misroutes += n->stats().misroutes;
      out.evictions += n->stats().evictions;
      out.rejoins += n->stats().rejoins;
      out.handoffs_sent += n->stats().handoffs_sent;
      out.handoffs_delivered += n->stats().handoffs_delivered;
      out.revoked += n->stats().revoked;
      out.fence_sheds += n->stats().fence_sheds;
      out.leftover_pendings +=
          n->server().inflight() + n->server().queue_depth();
    }
    out.digest = inj.schedule_digest();
    out.log = inj.log_string();
  }
  const ProcessTable empty;
  out.leaked_pages = auditor.run(empty).leaked_pages;
  return out;
}

TEST(ClusterFaultMatrix, SweepHoldsClusterWideExactlyOnceForEverySeed) {
  const std::uint64_t base = env_u64("MW_FAULT_SEED_BASE", 1);
  const std::uint64_t count = env_u64("MW_FAULT_SEED_COUNT", 4);
  std::uint64_t robustness_events = 0;
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    const ClusterOutcome r = run_matrix(seed);
    EXPECT_EQ(r.effect_duplicates, 0u)
        << "seed=" << seed << " digest=" << r.digest << "\n" << r.log;
    EXPECT_EQ(r.wrong_values, 0u) << "seed=" << seed << "\n" << r.log;
    EXPECT_GT(r.ok, 0u) << "seed=" << seed << "\n" << r.log;
    EXPECT_EQ(r.leftover_pendings, 0u) << "seed=" << seed << "\n" << r.log;
    EXPECT_EQ(r.leaked_pages, 0) << "seed=" << seed;
    // Every surviving node must have noticed the scripted churn.
    EXPECT_GE(r.evictions, 2u) << "seed=" << seed;
    EXPECT_LE(r.effects, static_cast<std::size_t>(r.answered) + 64)
        << "seed=" << seed;
    robustness_events += r.session_replays + r.log_replays + r.misroutes +
                         r.handoffs_sent + r.revoked + r.fence_sheds +
                         r.rejoins;
  }
  // Vacuous-sweep guard: the churn must actually exercise the protocol.
  EXPECT_GT(robustness_events, 0u);
}

TEST(ClusterFaultMatrix, SeedReplaysToIdenticalScheduleAndOutcome) {
  const std::uint64_t seed = env_u64("MW_FAULT_SEED_BASE", 1);
  const ClusterOutcome a = run_matrix(seed);
  const ClusterOutcome b = run_matrix(seed);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.effects, b.effects);
  EXPECT_EQ(a.session_replays, b.session_replays);
  EXPECT_EQ(a.log_replays, b.log_replays);
  EXPECT_EQ(a.misroutes, b.misroutes);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.handoffs_sent, b.handoffs_sent);
}

}  // namespace
}  // namespace mw
