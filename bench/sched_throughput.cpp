// SCHED-THROUGHPUT — race throughput and latency of the kPool backend
// (alternatives as tasks on the shared work-stealing scheduler) as the
// number of *concurrent* races grows.
//
// The workload is the scheduler's design case: each race has one fast
// alternative marked likely to win (priority 1.0) and k-1 slow siblings
// (priority 0.0) that burn CPU until cancelled. The pool runs the
// promising alternative first and revokes the still-queued siblings at
// sync time — their bodies never run and their worlds copy zero pages.
//
// Sweeps concurrency (driver threads issuing races back-to-back) over
// {minconc … maxconc} ×4 and reports races/sec plus per-race latency
// percentiles. With --check the binary exits non-zero unless (a) races/sec
// at 64 concurrent races (or the highest level swept) is at least
// `factor`× the best level's — throughput does not collapse as races
// outnumber cores — (b) a traced run shows revoked siblings with *zero*
// copied pages (the pruning guarantee, via SpecProfile), and (c) on the
// deterministic pool, the winner revokes every slow sibling before it
// starts, in every race (the revocation gate). --check=det gates (c)
// alone: (a) and (b) read the wall clock.
//
//   $ sched_throughput [--minconc=1] [--maxconc=256] [--races=1024]
//                      [--alts=3] [--work_us=20] [--factor=0.5]
//                      [--check[=det]] [--json=BENCH_sched_throughput.json]
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/alt.hpp"
#include "core/alt_context.hpp"
#include "core/runtime.hpp"
#include "trace/spec_profile.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

using namespace mw;

namespace {

// One k-way race: alternative 0 computes briefly and syncs; the others
// grind compute/checkpoint slices until cancellation unwinds them (with a
// generous self-abort bound so a lost cancellation cannot wedge the bench).
std::vector<Alternative> make_race(std::size_t alts, VDuration work_us) {
  std::vector<Alternative> race;
  race.reserve(alts);
  race.push_back(Alternative{
      "fast", nullptr,
      [work_us](AltContext& ctx) {
        ctx.compute(work_us);
        const std::uint64_t v = ctx.index();
        ctx.space().store(0, v);
        std::uint8_t buf[sizeof(v)];
        std::memcpy(buf, &v, sizeof(v));
        ctx.set_result(std::span<const std::uint8_t>(buf, sizeof(v)));
      },
      nullptr, /*priority=*/1.0});
  for (std::size_t i = 1; i < alts; ++i) {
    race.push_back(Alternative{
        "slow" + std::to_string(i), nullptr,
        [work_us](AltContext& ctx) {
          for (int spin = 0; spin < 1000; ++spin) {
            ctx.compute(work_us);
            ctx.checkpoint();  // cancellation lands here once a sibling wins
          }
          ctx.fail("never won");
        },
        nullptr, /*priority=*/0.0});
  }
  return race;
}

struct Row {
  std::size_t conc = 0;
  double races_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
};

// `conc` driver threads issue `total / conc` races each, back-to-back,
// against one shared Runtime; wall clock over the whole batch gives the
// throughput, per-race stopwatches the latency distribution.
Row run_level(std::size_t conc, std::size_t total, std::size_t alts,
              VDuration work_us) {
  RuntimeConfig cfg;
  cfg.backend = AltBackend::kPool;
  cfg.page_size = 256;
  cfg.num_pages = 16;
  Runtime rt(cfg);
  rt.scheduler();  // exclude worker spawn

  const std::size_t per_driver = std::max<std::size_t>(1, total / conc);
  std::vector<std::vector<double>> lat(conc);
  std::vector<std::thread> drivers;
  drivers.reserve(conc);
  Stopwatch wall;
  for (std::size_t d = 0; d < conc; ++d) {
    drivers.emplace_back([&, d] {
      const std::vector<Alternative> race = make_race(alts, work_us);
      World parent = rt.make_root("drv" + std::to_string(d));
      lat[d].reserve(per_driver);
      for (std::size_t r = 0; r < per_driver; ++r) {
        Stopwatch sw;
        (void)run_alternatives(rt, parent, race);
        lat[d].push_back(sw.elapsed_ms() * 1000.0);
      }
    });
  }
  for (auto& t : drivers) t.join();
  const double secs = wall.elapsed_ms() / 1000.0;

  std::vector<double> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  const Summary s = summarize(all);
  Row row;
  row.conc = conc;
  row.races_per_sec = static_cast<double>(all.size()) / secs;
  row.p50_us = s.median;
  row.p99_us = s.p99;
  return row;
}

// The pruning guarantee, checked on a traced pool run: some siblings were
// revoked while still queued, and those siblings copied zero COW pages.
struct RevokeCheck {
  std::size_t revoked = 0;
  std::uint64_t revoked_pages = 0;
};

RevokeCheck traced_pool_run(std::size_t races, std::size_t alts,
                            VDuration work_us) {
  RuntimeConfig cfg;
  cfg.backend = AltBackend::kPool;
  cfg.page_size = 256;
  cfg.num_pages = 16;
  Runtime rt(cfg);
  trace::reset();
  trace::Scope traced(true);
  const std::vector<Alternative> race = make_race(alts, work_us);
  World parent = rt.make_root("traced");
  for (std::size_t r = 0; r < races; ++r)
    (void)run_alternatives(rt, parent, race, {});
  const trace::SpecProfile prof =
      trace::build_spec_profile(trace::collect(), 0);
  return RevokeCheck{prof.worlds_revoked(), prof.revoked_pages()};
}

// The revocation gate: per race, the siblings revoked before they start,
// on the deterministic pool. Its driver runs one task at a time and checks
// the race right after each, and a parent whose race is decided sweeps the
// queue itself — so on a plain race the count would not depend on the
// winner's own revocation at all. Each race here carries one more
// alternative: a helper of top priority whose body waits on a nested race
// of one lowest-priority alternative, as a pool worker helps while it waits
// on its own race. The driver starts the helper, and the helper's helping
// wait runs the fast winner next. Unless the winner revokes the slow
// siblings at its sync, that same wait runs them before its own
// alternative, long before the race's parent gets to sweep.
struct DetRevokeCheck {
  std::size_t races = 0;
  std::size_t min_revoked = 0;  // per race, over every race
  std::size_t max_revoked = 0;
};

DetRevokeCheck deterministic_revoke_run(std::size_t races, std::size_t alts,
                                        VDuration work_us) {
  RuntimeConfig cfg;
  cfg.backend = AltBackend::kPool;
  cfg.page_size = 256;
  cfg.num_pages = 16;
  cfg.pool.deterministic_seed = 1;
  cfg.pool.deterministic_steal_prob = 0.0;
  Runtime rt(cfg);
  std::vector<Alternative> race = make_race(alts, work_us);
  race.push_back(Alternative{
      "helper", nullptr,
      [&rt, work_us](AltContext& ctx) {
        const std::vector<Alternative> inner{Alternative{
            "inner", nullptr,
            [work_us](AltContext& c) { c.compute(work_us); }, nullptr,
            /*priority=*/-1.0}};
        (void)run_alternatives(rt, ctx.world(), inner);
        ctx.fail("helped only");
      },
      nullptr, /*priority=*/2.0});
  World parent = rt.make_root("det");
  DetRevokeCheck c;
  c.races = races;
  for (std::size_t r = 0; r < races; ++r) {
    const AltOutcome out = run_alternatives(rt, parent, race, {});
    std::size_t revoked = 0;
    for (const AltReport& a : out.alts)
      if (a.revoked) ++revoked;
    c.min_revoked = r == 0 ? revoked : std::min(c.min_revoked, revoked);
    c.max_revoked = std::max(c.max_revoked, revoked);
  }
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::size_t minconc =
      static_cast<std::size_t>(cli.get_int("minconc", 1));
  const std::size_t maxconc =
      static_cast<std::size_t>(cli.get_int("maxconc", 256));
  const std::size_t races = static_cast<std::size_t>(cli.get_int("races", 1024));
  const std::size_t alts = static_cast<std::size_t>(cli.get_int("alts", 3));
  const VDuration work_us = cli.get_int("work_us", 20);
  const double factor = cli.get_double("factor", 0.5);
  const bool check = cli.has("check");
  const bool check_wall = check && cli.get("check", "") != "det";
  const std::string json_path = cli.get("json", "");

  std::cout << "Concurrent-race throughput: kPool (work-stealing tasks)\n"
            << alts << "-way races, fast alternative " << work_us
            << " us, " << races << " races per level\n";
  TablePrinter table({"conc", "races_s", "p50_us", "p99_us"});

  std::vector<Row> rows;
  double best = 0.0;
  for (std::size_t conc = minconc; conc <= maxconc; conc *= 4) {
    const Row p = run_level(conc, races, alts, work_us);
    rows.push_back(p);
    best = std::max(best, p.races_per_sec);
    table.add_row({TablePrinter::num(static_cast<std::int64_t>(conc)),
                   TablePrinter::num(p.races_per_sec, 0),
                   TablePrinter::num(p.p50_us, 0),
                   TablePrinter::num(p.p99_us, 0)});
  }
  table.print(std::cout);
  std::cout << "(shape to verify: races/sec holds as concurrency grows — "
               "the pool never runs more alternatives than workers and "
               "revokes queued losers for free)\n";

  const RevokeCheck rc = traced_pool_run(/*races=*/200, alts, work_us);
  std::cout << "\ntraced pool run: " << rc.revoked
            << " siblings revoked before running, " << rc.revoked_pages
            << " pages copied by revoked siblings\n";
  const DetRevokeCheck dc = deterministic_revoke_run(/*races=*/64, alts,
                                                     work_us);
  std::cout << "deterministic pool: " << dc.races
            << " races, siblings revoked before they start per race: min "
            << dc.min_revoked << ", max " << dc.max_revoked << "\n";

  // The check level: 64 concurrent races if swept, else the highest level.
  double ratio = 0.0;
  std::size_t check_conc = 0;
  for (const Row& p : rows) {
    check_conc = p.conc;
    ratio = best > 0.0 ? p.races_per_sec / best : 0.0;
    if (check_conc == 64) break;
  }
  bool pass = true;
  if (check) {
    // Every slow sibling (all but the fast winner) revoked in every race.
    const bool det_ok = dc.min_revoked >= alts - 1;
    pass = det_ok;
    std::cout << "check: deterministic pool revokes >= " << alts - 1
              << " siblings in every race (min " << dc.min_revoked
              << "): " << (det_ok ? "PASS" : "FAIL") << "\n";
    if (check_wall) {
      const bool hold_ok = ratio >= factor;
      const bool revoke_ok = rc.revoked > 0 && rc.revoked_pages == 0;
      pass = pass && hold_ok && revoke_ok;
      std::cout << "check: races/sec at conc=" << check_conc << " is "
                << ratio << " of the best level (need >= " << factor
                << "): " << (hold_ok ? "PASS" : "FAIL") << "\n"
                << "check: revoked siblings " << rc.revoked
                << " > 0 with 0 copied pages (got " << rc.revoked_pages
                << "): " << (revoke_ok ? "PASS" : "FAIL") << "\n";
    } else {
      std::cout << "check: wall-clock checks not gated (--check=det)\n";
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"sched_throughput\",\n"
        << "  \"alts\": " << alts << ",\n  \"work_us\": " << work_us
        << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      out << "    {\"conc\": " << rows[i].conc
          << ", \"pool_races_per_sec\": " << rows[i].races_per_sec
          << ", \"pool_p50_us\": " << rows[i].p50_us
          << ", \"pool_p99_us\": " << rows[i].p99_us << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"check\": {\"enabled\": " << (check ? "true" : "false")
        << ", \"conc\": " << check_conc << ", \"ratio_to_best\": " << ratio
        << ", \"factor\": " << factor
        << ", \"revoked\": " << rc.revoked
        << ", \"revoked_pages\": " << rc.revoked_pages
        << ", \"det_min_revoked\": " << dc.min_revoked
        << ", \"wall_clock\": " << (check_wall ? "true" : "false")
        << ", \"pass\": " << (pass ? "true" : "false") << "}\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return pass ? 0 : 1;
}
