// Chaos matrix for the hedged service: per seed, one cluster lives through
// message drops / duplications / delays, probabilistic backend crashes and
// hangs, one scripted backend SIGKILL-analogue, a scripted partition that
// heals, and a full server restart (snapshot -> new process -> restore +
// reconcile) — all under client load with retries. The machine-checked
// invariants, per seed:
//
//   * exactly-once: the external EffectLog holds no duplicate (client, seq)
//     pair, across every retry, hedge, failover, and the restart;
//   * correctness: every kOk response equals service_reference();
//   * the server drains (no stuck pendings) and the RuntimeAuditor is clean;
//   * the same seed replays to the identical fault schedule and outcome.
//
// CI shards the sweep via MW_FAULT_SEED_BASE / MW_FAULT_SEED_COUNT; a
// failing seed prints its schedule digest and fired-fault log as the
// replay handle.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/runtime_auditor.hpp"
#include "dist/sim_transport.hpp"
#include "fault/fault.hpp"
#include "service/hedged_server.hpp"
#include "service/service_backend.hpp"
#include "service/service_client.hpp"
#include "util/des.hpp"

namespace mw {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t def) {
  const char* v = std::getenv(name);
  return v ? std::strtoull(v, nullptr, 10) : def;
}

struct MatrixOutcome {
  std::uint64_t ok = 0;
  std::uint64_t answered = 0;
  std::uint64_t wrong_values = 0;
  std::size_t effects = 0;
  std::size_t effect_duplicates = 0;
  std::uint64_t replays = 0;
  std::uint64_t in_flight_dups = 0;
  std::uint64_t hedges = 0;
  std::uint64_t failovers = 0;
  std::uint64_t local_fallbacks = 0;
  std::size_t leftover_pendings = 0;
  int leaked_pages = 0;
  std::uint64_t digest = 0;
  std::string log;
};

MatrixOutcome run_matrix(std::uint64_t seed) {
  MatrixOutcome out;
  RuntimeAuditor auditor;
  {
    FaultInjector inj(seed);
    inj.arm("net.drop",
            FaultSpec::with_probability(FaultKind::kDropMessage, 0.05));
    inj.arm("net.dup",
            FaultSpec::with_probability(FaultKind::kDuplicateMessage, 0.05));
    inj.arm("net.delay",
            FaultSpec::with_probability(FaultKind::kDelay, 0.08)
                .delayed(vt_ms(2)));
    // One spec per point: odd seeds hang executions (hedge/deadline must
    // cover), even seeds crash the backend outright (failover must cover).
    if (seed % 2) {
      inj.arm("svc.exec",
              FaultSpec::with_probability(FaultKind::kHang, 0.03));
    } else {
      inj.arm("svc.exec",
              FaultSpec::with_probability(FaultKind::kCrashException, 0.01));
    }
    FaultScope scope(inj);

    LinkModel link;
    link.latency = vt_us(500);
    link.per_message_overhead = vt_us(100);
    EventQueue queue;
    SimTransport transport(queue, link, seed);
    EffectLog effects;

    ServiceConfig sc;
    sc.seed = seed;
    sc.service_mean = vt_ms(1);
    sc.health.heartbeat_interval = vt_ms(10);
    sc.health.suspect_after = vt_ms(30);
    sc.health.dead_after = vt_ms(80);
    // Brownout couples the matrix to live scheduler counters, which are
    // thread-timing dependent; the dedicated sim test covers it. Here the
    // replay-determinism invariant wins.
    sc.brownout_enter = 1e9;
    auto server = std::make_unique<HedgedServer>(transport, 100, effects, sc);

    auto make_backend = [&](NodeId node) {
      BackendConfig bc;
      bc.seed = seed;
      bc.service_mean = vt_ms(1);
      bc.health = sc.health;
      return std::make_unique<ServiceBackend>(transport, node, 100, bc);
    };
    std::vector<std::unique_ptr<ServiceBackend>> backends;
    for (NodeId node = 1; node <= 3; ++node) {
      backends.push_back(make_backend(node));
      server->add_backend(node);
    }

    constexpr VTime kLoadUntil = vt_ms(600);
    ClientConfig cc;
    cc.retry_after = vt_ms(15);
    cc.max_retries = 6;
    cc.deadline = vt_ms(60);
    std::vector<std::unique_ptr<ServiceClient>> clients;
    for (NodeId node = 200; node < 204; ++node) {
      clients.push_back(
          std::make_unique<ServiceClient>(transport, node, 100, cc));
      ServiceClient* cl = clients.back().get();
      cl->on_complete = [cl, &transport](const CallRecord&) {
        if (transport.now() < kLoadUntil)
          cl->call(30 + cl->records().size() % 7, cl->self());
      };
    }
    transport.run_until(vt_ms(2));  // beats land
    for (auto& cl : clients) cl->call(30, cl->self());

    // Scripted chaos on top of the seeded noise.
    transport.run_until(vt_ms(150));
    backends[0]->kill();  // the SIGKILL analogue: instant total silence
    transport.run_until(vt_ms(250));
    transport.set_link_blocked(100, 2, true);
    transport.set_link_blocked(2, 100, true);
    transport.run_until(vt_ms(300));

    // Full server restart mid-load: snapshot, "crash", restore + reconcile
    // against the same external effect log.
    const Bytes image = server->snapshot();
    server.reset();
    server = std::make_unique<HedgedServer>(transport, 100, effects, sc);
    if (!server->restore(image, effects)) {
      ADD_FAILURE() << "seed=" << seed << ": snapshot did not restore";
    }
    for (NodeId node = 1; node <= 3; ++node) server->add_backend(node);

    transport.run_until(vt_ms(400));
    transport.set_link_blocked(100, 2, false);  // the partition heals
    transport.set_link_blocked(2, 100, false);
    transport.run_until(kLoadUntil);

    // Drain: every client reaches a terminal state (answer or local
    // timeout) and the server finishes or expires all pendings.
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
    out.replays = server->stats().replays;
    out.in_flight_dups = server->stats().in_flight_dups;
    out.hedges = server->stats().hedges;
    out.failovers = server->stats().failovers;
    out.local_fallbacks = server->stats().local_fallbacks;
    out.leftover_pendings = server->inflight() + server->queue_depth();
    out.digest = inj.schedule_digest();
    out.log = inj.log_string();
  }
  const ProcessTable empty;
  out.leaked_pages = auditor.run(empty).leaked_pages;
  return out;
}

TEST(ServiceFaultMatrix, SweepHoldsExactlyOnceForEverySeed) {
  const std::uint64_t base = env_u64("MW_FAULT_SEED_BASE", 1);
  const std::uint64_t count = env_u64("MW_FAULT_SEED_COUNT", 4);
  std::uint64_t robustness_events = 0;
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    const MatrixOutcome r = run_matrix(seed);
    EXPECT_EQ(r.effect_duplicates, 0u)
        << "seed=" << seed << " digest=" << r.digest << "\n" << r.log;
    EXPECT_EQ(r.wrong_values, 0u) << "seed=" << seed << "\n" << r.log;
    EXPECT_GT(r.ok, 0u) << "seed=" << seed << "\n" << r.log;
    EXPECT_EQ(r.leftover_pendings, 0u) << "seed=" << seed << "\n" << r.log;
    EXPECT_EQ(r.leaked_pages, 0) << "seed=" << seed;
    // Effects are exactly the server-side successful commits; a client may
    // miss the response (dropped frame) yet the effect is still singular.
    EXPECT_LE(r.effects, static_cast<std::size_t>(r.answered) + 64)
        << "seed=" << seed;
    robustness_events += r.replays + r.in_flight_dups + r.hedges +
                         r.failovers + r.local_fallbacks;
  }
  // The sweep is vacuous if no duplicate, hedge, failover, or fallback
  // ever actually happened.
  EXPECT_GT(robustness_events, 0u);
}

TEST(ServiceFaultMatrix, SeedReplaysToIdenticalScheduleAndOutcome) {
  const std::uint64_t seed = env_u64("MW_FAULT_SEED_BASE", 1);
  const MatrixOutcome a = run_matrix(seed);
  const MatrixOutcome b = run_matrix(seed);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.effects, b.effects);
  EXPECT_EQ(a.replays, b.replays);
  EXPECT_EQ(a.hedges, b.hedges);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.local_fallbacks, b.local_fallbacks);
}

}  // namespace
}  // namespace mw
