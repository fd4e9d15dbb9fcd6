// End-to-end trace correctness on a scripted race: the virtual backend is
// deterministic, so a 3-alternative block with known costs must produce an
// exact lifecycle event sequence, hand-computable SpecProfile numbers, a
// clean auditor cross-check, and a well-formed Chrome-trace export. The
// TraceKinds cases check what MW_TRACE_KINDS generates on synthetic
// streams, so they run with tracing compiled out too.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/alt.hpp"
#include "core/alt_context.hpp"
#include "core/runtime.hpp"
#include "core/runtime_auditor.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/spec_profile.hpp"
#include "trace/trace.hpp"

namespace mw {
namespace {

// Three alternatives costing 30/10/20 ms under CostModel::free(): alt1
// (10 ms) wins, the others are eliminated at the win time because the
// free model charges nothing for commit or elimination.
struct ScriptedRace {
  Runtime rt;
  World root;
  AltOutcome out;

  static RuntimeConfig config() {
    RuntimeConfig cfg;
    cfg.backend = AltBackend::kVirtual;
    cfg.processors = 3;
    cfg.cost = CostModel::free();
    cfg.page_size = 64;
    cfg.num_pages = 32;
    return cfg;
  }

  ScriptedRace() : rt(config()), root(rt.make_root("scripted")) {
    std::vector<Alternative> alts;
    const VDuration costs[] = {vt_ms(30), vt_ms(10), vt_ms(20)};
    for (int i = 0; i < 3; ++i) {
      const VDuration c = costs[i];
      alts.push_back(Alternative{"alt" + std::to_string(i), nullptr,
                                 [c](AltContext& ctx) {
                                   ctx.space().store<int>(0, 1);
                                   ctx.work(c);
                                 },
                                 nullptr});
    }
    out = run_alternatives(rt, root, alts);
  }
};

std::vector<trace::TraceEvent> run_and_collect(ScriptedRace& race) {
  (void)race;  // constructed (and traced) by the caller under enable
  trace::set_enabled(false);
  return trace::collect();
}

TEST(TraceRace, ExactLifecycleSequence) {
#if defined(MW_TRACE_DISABLED)
  GTEST_SKIP() << "tracing compiled out (MW_TRACE=OFF)";
#endif
  trace::reset();
  trace::set_enabled(true);
  ScriptedRace race;
  const auto events = run_and_collect(race);
  EXPECT_EQ(race.out.winner_name, "alt1");
  EXPECT_EQ(race.out.elapsed, vt_ms(10));

  // Filter to the alt lifecycle; world/page events interleave but the
  // lifecycle order is exact and deterministic.
  std::vector<trace::TraceEvent> alt;
  for (const auto& e : events)
    if (e.kind >= trace::EventKind::kAltBlockBegin &&
        e.kind <= trace::EventKind::kAltBlockEnd)
      alt.push_back(e);

  using K = trace::EventKind;
  const K expected[] = {K::kAltBlockBegin, K::kAltSpawn,    K::kAltSpawn,
                        K::kAltSpawn,      K::kAltWait,     K::kAltChildBegin,
                        K::kAltChildEnd,   K::kAltChildBegin, K::kAltChildEnd,
                        K::kAltChildBegin, K::kAltChildEnd, K::kAltSync,
                        K::kAltEliminate,  K::kAltEliminate, K::kAltBlockEnd};
  ASSERT_EQ(alt.size(), std::size(expected));
  for (std::size_t i = 0; i < alt.size(); ++i)
    EXPECT_EQ(alt[i].kind, expected[i]) << "at lifecycle index " << i;

  const Pid parent = alt[0].pid;
  const std::uint64_t group = alt[0].a;
  EXPECT_EQ(alt[0].b, 3u);  // block_begin.b = alternative count
  EXPECT_EQ(alt[0].t, 0);

  // Spawns name the parent and 1-based alternative indices, in order.
  const Pid spawned[] = {alt[1].pid, alt[2].pid, alt[3].pid};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(alt[1 + i].other, parent);
    EXPECT_EQ(alt[1 + i].a, group);
    EXPECT_EQ(alt[1 + i].b, static_cast<std::uint64_t>(i + 1));
  }

  // alt1 (index 1, cost 10 ms) wins at t = 10 ms; both losers are
  // eliminated at the same instant under the free cost model.
  EXPECT_EQ(alt[11].pid, spawned[1]);
  EXPECT_EQ(alt[11].other, parent);
  EXPECT_EQ(alt[11].t, vt_ms(10));
  EXPECT_EQ(alt[12].pid, spawned[0]);
  EXPECT_EQ(alt[13].pid, spawned[2]);
  EXPECT_EQ(alt[12].t, vt_ms(10));
  EXPECT_EQ(alt[13].t, vt_ms(10));

  // Child spans: all three begin at 0; all three end at the win time —
  // losers stop burning cycles when eliminated, not at their own cost.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(alt[5 + 2 * i].t, 0);
    EXPECT_EQ(alt[6 + 2 * i].t, vt_ms(10));
  }

  EXPECT_EQ(alt[14].pid, parent);
  EXPECT_EQ(alt[14].b, 0u);  // AltFailure::kNone
  EXPECT_EQ(alt[14].t, vt_ms(10));

  // The world layer recorded one fork per alternative and one commit.
  std::size_t forks = 0, commits = 0;
  for (const auto& e : events) {
    if (e.kind == trace::EventKind::kWorldFork) ++forks;
    if (e.kind == trace::EventKind::kWorldCommit) ++commits;
  }
  EXPECT_EQ(forks, 3u);
  EXPECT_EQ(commits, 1u);
  trace::reset();
}

TEST(TraceRace, SpecProfileHandComputed) {
#if defined(MW_TRACE_DISABLED)
  GTEST_SKIP() << "tracing compiled out (MW_TRACE=OFF)";
#endif
  trace::reset();
  trace::set_enabled(true);
  ScriptedRace race;
  const auto events = run_and_collect(race);
  const trace::SpecProfile prof = trace::build_spec_profile(events);

  ASSERT_EQ(prof.races.size(), 1u);
  const trace::RaceProfile& r = prof.races[0];
  EXPECT_EQ(r.spawned, 3u);
  EXPECT_EQ(r.survived, 1u);
  EXPECT_EQ(r.eliminated, 2u);
  EXPECT_EQ(r.aborted, 0u);
  EXPECT_FALSE(r.timed_out);

  // All three children run from 0 to the 10 ms win: 30 ms of execution,
  // of which the two losers' 20 ms is wasted. Ratio = 2/3.
  EXPECT_EQ(r.work_total, 3 * vt_ms(10));
  EXPECT_EQ(r.work_wasted, 2 * vt_ms(10));
  EXPECT_NEAR(r.wasted_ratio(), 2.0 / 3.0, 1e-9);
  EXPECT_EQ(r.first_win, vt_ms(10));
  EXPECT_EQ(r.quiesce, vt_ms(10));  // DES backends eliminate instantly

  EXPECT_EQ(prof.worlds_spawned(), 3u);
  EXPECT_EQ(prof.worlds_survived(), 1u);
  EXPECT_NEAR(prof.wasted_ratio(), 2.0 / 3.0, 1e-9);

  // The compact summary carries the headline numbers.
  const std::string s = prof.to_string();
  EXPECT_NE(s.find("3 world(s) spawned"), std::string::npos);
  EXPECT_NE(s.find("wasted-work ratio 0.667"), std::string::npos);
  trace::reset();
}

TEST(TraceRace, AuditorCrossChecksTrace) {
#if defined(MW_TRACE_DISABLED)
  GTEST_SKIP() << "tracing compiled out (MW_TRACE=OFF)";
#endif
  trace::reset();
  trace::set_enabled(true);
  ScriptedRace race;
  const auto events = run_and_collect(race);

  RuntimeAuditor auditor;
  auditor.add_world(race.root);
  const AuditReport report =
      auditor.run(race.rt.processes(), events, trace::dropped());
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_TRUE(report.trace_checked);
  EXPECT_EQ(report.trace_events, events.size());

  // A spawn the process table never saw is a violation.
  auto forged = events;
  trace::TraceEvent fake = forged.front();
  fake.kind = trace::EventKind::kAltSpawn;
  fake.pid = 9999;
  fake.other = 1;
  fake.a = forged.front().a;
  forged.push_back(fake);
  const AuditReport bad = auditor.run(race.rt.processes(), forged, 0);
  EXPECT_FALSE(bad.clean());

  // A lossy stream is skipped with a note, not failed.
  const AuditReport lossy = auditor.run(race.rt.processes(), events, 5);
  EXPECT_TRUE(lossy.clean());
  EXPECT_FALSE(lossy.trace_checked);
  ASSERT_FALSE(lossy.notes.empty());
  trace::reset();
}

TEST(TraceRace, ChromeExportWellFormed) {
#if defined(MW_TRACE_DISABLED)
  GTEST_SKIP() << "tracing compiled out (MW_TRACE=OFF)";
#endif
  trace::reset();
  trace::set_enabled(true);
  ScriptedRace race;
  const auto events = run_and_collect(race);
  const std::string json = trace::to_chrome_json(events);

  // Structural sanity (CI additionally json.loads the exported file).
  EXPECT_EQ(json.find("{\"displayTimeUnit\""), 0u);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);

  auto count = [&json](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + needle.size()))
      ++n;
    return n;
  };
  // One parent block span + three world spans.
  EXPECT_EQ(count("\"ph\":\"X\""), 4u);
  // Flow arrows pair up: every start has a finish.
  EXPECT_EQ(count("\"ph\":\"s\""), count("\"ph\":\"f\""));
  EXPECT_GE(count("\"ph\":\"s\""), 3u);  // at least one per spawned world
  // Fates are labelled for the lineage view.
  EXPECT_EQ(count("\"fate\":\"won\""), 1u);
  EXPECT_EQ(count("\"fate\":\"eliminated\""), 2u);
  EXPECT_NE(json.find("alt block #"), std::string::npos);

  // Braces and brackets balance (no truncated records).
  std::int64_t depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  trace::reset();
}

trace::TraceEvent synthetic(trace::EventKind kind, std::uint64_t a = 0,
                            std::uint64_t b = 0) {
  trace::TraceEvent e;
  e.kind = kind;
  e.a = a;
  e.b = b;
  return e;
}

TEST(TraceKinds, EveryRowHasAUniqueValueAndName) {
  std::set<std::uint16_t> values;
  std::set<std::string> names;
  for (trace::EventKind k : trace::kAllKinds) {
    const std::string name = trace::kind_name(k);
    EXPECT_NE(name, "unknown");
    EXPECT_NE(name.find('_'), std::string::npos) << name << " has no layer";
    EXPECT_TRUE(values.insert(static_cast<std::uint16_t>(k)).second) << name;
    EXPECT_TRUE(names.insert(name).second) << name;
  }
  EXPECT_EQ(values.size(), std::size(trace::kAllKinds));
  EXPECT_EQ(*values.rbegin() + 1u, trace::kKindSlots);
  EXPECT_STREQ(trace::kind_name(static_cast<trace::EventKind>(0)), "unknown");
  // Values are the on-disk schema; pin both ends of the table.
  EXPECT_EQ(static_cast<int>(trace::EventKind::kAltBlockBegin), 1);
  EXPECT_STREQ(trace::kind_name(trace::EventKind::kSvcShed), "svc_shed");
  EXPECT_EQ(static_cast<int>(trace::EventKind::kPolicyDefer), 143);
}

TEST(TraceKinds, OneEventPerKindCountsOnlyThatKind) {
  for (trace::EventKind k : trace::kAllKinds) {
    const trace::SpecProfile p = trace::build_spec_profile({synthetic(k)});
    for (trace::EventKind other : trace::kAllKinds)
      EXPECT_EQ(p.count(other), other == k ? 1u : 0u)
          << "fed " << trace::kind_name(k) << ", read "
          << trace::kind_name(other);
  }
}

TEST(TraceKinds, PayloadSumsReproduceTheFoldedAggregates) {
  using K = trace::EventKind;
  const std::vector<trace::TraceEvent> stream = {
      synthetic(K::kNetSend, 100, 1),    synthetic(K::kNetSend, 50, 2),
      synthetic(K::kPageCopy, 3, 4096),  synthetic(K::kPageCopy, 9, 4096),
      synthetic(K::kNetRetransmit, 1, 200),
      synthetic(K::kNetRetransmit, 2, 400),
      synthetic(K::kNetTimeout, 5, 0),   synthetic(K::kNetTimeout, 5, 1),
      synthetic(K::kNetTimeout, 2, 1),   synthetic(K::kSvcBrownout, 1, 900),
      synthetic(K::kSvcBrownout, 0, 10), synthetic(K::kSvcBrownout, 1, 950),
      synthetic(K::kSvcBreaker, 4, 1),   synthetic(K::kSvcBreaker, 4, 2),
      synthetic(K::kSvcBreaker, 4, 0),   synthetic(K::kSvcBreaker, 5, 1),
      synthetic(K::kSuperRestart, 1),    synthetic(K::kDistFailover, 0, 64),
      synthetic(K::kDistFailover, 1, 64)};
  const trace::SpecProfile p = trace::build_spec_profile(stream);
  EXPECT_EQ(p.events, stream.size());
  EXPECT_EQ(p.sum_a(K::kNetSend), 150u);        // bytes sent
  EXPECT_EQ(p.count(K::kPageCopy), 2u);
  EXPECT_EQ(p.sum_b(K::kPageCopy), 8192u);      // bytes copied
  EXPECT_EQ(p.sum_b(K::kNetRetransmit), 600u);  // backoff ticks paid
  EXPECT_EQ(p.count(K::kNetTimeout), 3u);
  EXPECT_EQ(p.sum_b(K::kNetTimeout), 2u);       // deadline expiries
  EXPECT_EQ(p.sum_a(K::kSvcBrownout), 2u);      // brownout entries
  EXPECT_EQ(p.svc_breaker_opens, 2u);
  EXPECT_EQ(p.restarts(), 3u);

  const std::string s = p.to_string();
  EXPECT_NE(s.find("  COW traffic: 2 page copies (8192 B)"), std::string::npos)
      << s;
  EXPECT_NE(s.find("  net: send 2, retransmit 2, timeout 3\n"),
            std::string::npos)
      << s;
  EXPECT_NE(s.find("  svc: brownout 3, breaker 4\n"), std::string::npos) << s;
  EXPECT_NE(s.find("  restarts/failovers: 3\n"), std::string::npos) << s;
  EXPECT_NE(s.find("  breaker opens: 2\n"), std::string::npos) << s;
  EXPECT_EQ(s.find("  msg:"), std::string::npos) << s;  // no msg_* seen
}

}  // namespace
}  // namespace mw
