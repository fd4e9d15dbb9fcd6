// POLICY-AB — static vs adaptive speculation policy (core/spec_policy.hpp)
// across three workload shapes, on the surfaces the policy engine drives:
//
//   * the kPool race path: k-way races where exactly one scripted position
//     wins fast and the losers burn CPU until cancelled. Base priorities
//     are equal — the static policy runs alternatives in submission order,
//     the adaptive policy reorders by learned per-position win rate, so the
//     predicted winner starts first and the losers are revoked unrun. It
//     runs twice: on the wall-clock pool (wasted-work ratio from a traced
//     SpecProfile, p99 in wall us) and on the deterministic pool with zero
//     steal probability, where the driver runs one task at a time in
//     priority order and the count of loser bodies that ran before the
//     winner is exact.
//   * the or-parallel Prolog driver (deterministic kPool): a 4-clause
//     choice point whose winning clause is scripted per query; the
//     adaptive policy both reorders clause tasks and holds the split veto.
//
// Shapes: `uniform` (winner position uniformly random — no signal; the
// modes should tie), `skewed` (one position wins 85% of the time — the
// adaptive policy's design case), `bursty` (the winner migrates every
// `burst` races — the win-rate decay keeps history cheap to outvote), and
// `hinted` (perfbench race_prune's draw: one position per race carries
// priority 1, uniformly drawn, and wins 75% of the time; otherwise the
// winner is the last position, or the one before it when the hint is
// last). `hinted` runs on the deterministic race surface only. There the
// static order is already the best one (the hint, then the last position:
// ties run newest first), so the learned order can only match it by
// ranking the wrong-hint winner right after the hint; it is gated within
// the `tie_wasted` band of static.
//
// With --check the binary exits non-zero unless the adaptive policy
// dominates-or-ties static per shape on every gated column: losers run
// before the winner on the deterministic race surface (adaptive at most
// static; within `tie_wasted` of it on `uniform` and `hinted`), wasted-work
// ratio and p99 on the Prolog surface, and wasted
// work and p99 on the wall-clock race surface. Ties on the banded columns
// use the `tie_wasted`/`tie_p99` factors plus a small absolute slack,
// because "no signal to exploit" must not fail on noise. --check=det gates
// only the deterministic columns (the wall-clock race cells are still run,
// printed and written to --json): a 0.4 s wall-clock p99 is one host stall
// away from failing, so the short smoke run leaves it to the full window.
//
//   $ policy_ab [--races=200] [--queries=120] [--alts=4] [--work_us=4]
//               [--spins=40] [--burst=60] [--reps=3] [--seed=1]
//               [--tie_wasted=1.10] [--tie_p99=1.25] [--check[=det]]
//               [--json=BENCH_policy_ab.json]
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/alt.hpp"
#include "core/alt_context.hpp"
#include "core/runtime.hpp"
#include "prolog/or_parallel.hpp"
#include "trace/spec_profile.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

using namespace mw;

namespace {

enum class Shape { kUniform, kSkewed, kBursty, kHinted };

const char* shape_name(Shape s) {
  switch (s) {
    case Shape::kUniform: return "uniform";
    case Shape::kSkewed: return "skewed";
    case Shape::kBursty: return "bursty";
    case Shape::kHinted: return "hinted";
  }
  return "?";
}

/// One race's script: the winning position and the hinted one, if any.
struct Draw {
  std::size_t winner = 0;
  std::optional<std::size_t> hint;
};

/// The scripted draw for race/query `r`. Both modes of a cell draw from
/// identically seeded streams, so they see the same sequence.
Draw draw_at(Shape shape, std::size_t r, std::size_t k, std::size_t burst,
             Rng& rng) {
  switch (shape) {
    case Shape::kUniform:
      return {static_cast<std::size_t>(rng.next_below(k)), std::nullopt};
    case Shape::kSkewed:
      // One hot position — deliberately NOT position 0, which submission
      // order would favour anyway.
      if (rng.next_double() < 0.85) return {(k >= 3) ? 2 : k - 1, std::nullopt};
      return {static_cast<std::size_t>(rng.next_below(k)), std::nullopt};
    case Shape::kBursty:
      rng.next_below(k);  // keep the streams aligned across shapes
      return {(r / burst) % k, std::nullopt};
    case Shape::kHinted: {
      const std::size_t hint = static_cast<std::size_t>(rng.next_below(k));
      if (rng.next_bool(0.75)) return {hint, hint};
      return {hint == k - 1 ? k - 2 : k - 1, hint};
    }
  }
  return {};
}

// One k-way race with the winner at `winner`: that position computes
// briefly and syncs; the others grind compute/checkpoint slices until the
// winner's cancellation lands (with a self-abort bound so a lost
// cancellation cannot wedge the bench). Base priorities are equal apart
// from the draw's hint (priority 1) — the policy engine is the only other
// thing that can reorder.
std::vector<Alternative> make_race(std::size_t alts, const Draw& d,
                                   VDuration work_us, int spins) {
  const std::size_t winner = d.winner;
  std::vector<Alternative> race;
  race.reserve(alts);
  for (std::size_t i = 0; i < alts; ++i) {
    if (i == winner) {
      race.push_back(Alternative{
          "win" + std::to_string(i), nullptr,
          [work_us](AltContext& ctx) {
            ctx.compute(work_us);
            const std::uint64_t v = ctx.index();
            ctx.space().store(0, v);
            std::uint8_t buf[sizeof(v)];
            std::memcpy(buf, &v, sizeof(v));
            ctx.set_result(std::span<const std::uint8_t>(buf, sizeof(v)));
          },
          nullptr, /*priority=*/d.hint == i ? 1.0 : 0.0});
    } else {
      race.push_back(Alternative{
          "lose" + std::to_string(i), nullptr,
          [work_us, spins](AltContext& ctx) {
            for (int spin = 0; spin < spins; ++spin) {
              ctx.compute(work_us);
              ctx.checkpoint();  // cancellation lands here
            }
            ctx.fail("never won");
          },
          nullptr, /*priority=*/d.hint == i ? 1.0 : 0.0});
    }
  }
  return race;
}

struct Cell {
  double wasted = 0;  // SpecProfile wasted-work ratio over the cell
  // Latency order statistics. Race cells: wall microseconds per race.
  // Prolog cells: total inferences to the first answer per query — the
  // deterministic driver executes sequentially, so inferences ARE the
  // query's latency, in inference units, with zero wall-clock noise.
  double p50 = 0;
  double p99 = 0;
  std::uint64_t vetoes = 0;      // prolog only: splits refused
  std::uint64_t losers_run = 0;  // deterministic race only: see below
};

PolicyConfig bench_policy(PolicyMode mode) {
  PolicyConfig pc;
  pc.mode = mode;
  pc.win_window = 8;  // fast decay: bursty winners migrate every `burst`
  return pc;
}

// One rep = a fresh Runtime learning from scratch over the full race
// sequence. Reps exist for noise robustness only: the cell's p50/p99 are
// the elementwise minima across reps, the standard defense against the
// multi-millisecond scheduling spikes a shared CI core injects into ~1% of
// wall-clock samples (which would otherwise own a 200-sample p99).
Cell run_race_cell(PolicyMode mode, Shape shape, std::size_t races,
                   std::size_t alts, VDuration work_us, int spins,
                   std::size_t burst, std::uint64_t seed, std::size_t reps) {
  Cell c;
  double wasted_sum = 0.0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    RuntimeConfig cfg;
    cfg.backend = AltBackend::kPool;
    cfg.page_size = 256;
    cfg.num_pages = 16;
    cfg.seed = seed;
    cfg.pool.workers = 2;
    cfg.pool.max_live_worlds = 8;
    cfg.policy = bench_policy(mode);
    Runtime rt(cfg);
    rt.scheduler();  // exclude worker spawn from the first race's latency

    trace::reset();
    trace::Scope traced(true);
    World parent = rt.make_root("ab");
    Rng script(seed ^ 0x5ab5ab);  // same winner sequence every rep and mode
    std::vector<double> lat;
    lat.reserve(races);
    for (std::size_t r = 0; r < races; ++r) {
      const std::vector<Alternative> race =
          make_race(alts, draw_at(shape, r, alts, burst, script), work_us,
                    spins);
      Stopwatch sw;
      (void)run_alternatives(rt, parent, race);
      lat.push_back(sw.elapsed_ms() * 1000.0);
    }
    const trace::SpecProfile prof =
        trace::build_spec_profile(trace::collect(), trace::dropped());
    const Summary s = summarize(lat);
    wasted_sum += prof.wasted_ratio();
    c.p50 = rep == 0 ? s.median : std::min(c.p50, s.median);
    c.p99 = rep == 0 ? s.p99 : std::min(c.p99, s.p99);
  }
  c.wasted = wasted_sum / static_cast<double>(reps);
  return c;
}

// The same race sequence on the deterministic pool with zero steal
// probability: the driver runs one task at a time, highest priority first
// (ties LIFO), and the winner's sync revokes every sibling still queued.
// So the loser bodies that ran are exactly those started before the winner
// — a count with no wall clock in it. Static order starts the last
// position first; adaptive order starts the learned favourite first.
// The surface runs kDetRaceFactor times the wall-clock race count: it is
// cheap, and on `uniform` the count's draw noise (no order can win there
// in expectation) shrinks to about 2% of it at the default size.
constexpr std::size_t kDetRaceFactor = 16;

Cell run_det_race_cell(PolicyMode mode, Shape shape, std::size_t races,
                       std::size_t alts, VDuration work_us, int spins,
                       std::size_t burst, std::uint64_t seed) {
  RuntimeConfig cfg;
  cfg.backend = AltBackend::kPool;
  cfg.page_size = 256;
  cfg.num_pages = 16;
  cfg.seed = seed;
  cfg.pool.deterministic_seed = seed ^ 0xde7;
  cfg.pool.deterministic_steal_prob = 0.0;
  cfg.pool.max_live_worlds = 8;
  cfg.policy = bench_policy(mode);
  Runtime rt(cfg);
  World parent = rt.make_root("ab-det");
  Rng script(seed ^ 0x5ab5ab);  // the wall-clock cells' winner sequence
  Cell c;
  for (std::size_t r = 0; r < races; ++r) {
    const AltOutcome out = run_alternatives(
        rt, parent,
        make_race(alts, draw_at(shape, r, alts, burst, script), work_us,
                  spins));
    for (const AltReport& a : out.alts)
      if (a.ran && !a.success) ++c.losers_run;
  }
  return c;
}

// The or-parallel surface: route/2 has one clause per fact table; only the
// table holding the query key succeeds, so the winning *clause position*
// is key / facts_per. Deterministic kPool, zero steal probability: task
// order is pure priority order — exactly what the policy reorders.
std::string route_program(std::size_t tables, std::size_t facts_per) {
  std::string p;
  for (std::size_t t = 0; t < tables; ++t) {
    p += "route(X, Y) :- tab" + std::to_string(t) + "(X, Y).\n";
  }
  for (std::size_t t = 0; t < tables; ++t) {
    for (std::size_t f = 0; f < facts_per; ++f) {
      const std::size_t key = t * facts_per + f;
      p += "tab" + std::to_string(t) + "(" + std::to_string(key) + ", " +
           std::to_string(1000 + key) + ").\n";
    }
  }
  return p;
}

Cell run_prolog_cell(PolicyMode mode, Shape shape, std::size_t queries,
                     std::size_t tables, std::size_t facts_per,
                     std::size_t burst, std::uint64_t seed) {
  RuntimeConfig cfg;
  cfg.backend = AltBackend::kPool;
  cfg.page_size = 64;
  cfg.num_pages = 32;
  cfg.seed = seed;
  cfg.pool.deterministic_seed = seed ^ 0xde7;
  cfg.pool.deterministic_steal_prob = 0.0;
  cfg.pool.max_live_worlds = 8;
  cfg.policy = bench_policy(mode);
  Runtime rt(cfg);

  const prolog::Program prog = prolog::Program::parse(
      route_program(tables, facts_per));
  prolog::OrParallelConfig ocfg;
  ocfg.spawn_depth = 1;

  Rng script(seed ^ 0x5ab5ab);
  std::vector<double> lat;
  lat.reserve(queries);
  std::uint64_t vetoes = 0;
  std::uint64_t total_inf = 0;
  std::uint64_t seq_inf = 0;
  for (std::size_t q = 0; q < queries; ++q) {
    const std::size_t t = draw_at(shape, q, tables, burst, script).winner;
    const std::size_t key =
        t * facts_per + static_cast<std::size_t>(script.next_below(facts_per));
    const std::string query = "route(" + std::to_string(key) + ", Y)";
    const prolog::OrParallelResult r =
        prolog::solve_or_parallel(rt, prog, query, ocfg);
    // Deterministic latency: the det driver executes one task at a time,
    // so total inferences (losers included) IS the time-to-first-answer.
    lat.push_back(static_cast<double>(r.total_inferences));
    total_inf += r.total_inferences;
    seq_inf += r.sequential_inferences;
    vetoes += r.splits_vetoed;
    if (!r.success) {
      std::cerr << "query failed: " << query << "\n";
      std::exit(2);
    }
  }
  const Summary s = summarize(lat);
  Cell c;
  // Deterministic wasted-work ratio: inferences the speculative engine
  // executed beyond what the sequential engine pays for the same answers.
  // (A well-ordered adaptive run can beat sequential — the winning clause
  // runs without scanning the clauses before it — which clamps to 0.)
  c.wasted =
      total_inf <= seq_inf
          ? 0.0
          : static_cast<double>(total_inf - seq_inf) /
                static_cast<double>(total_inf);
  c.p50 = s.median;
  c.p99 = s.p99;
  c.vetoes = vetoes;
  return c;
}

struct ShapeResult {
  Shape shape;
  Cell race_static, race_adaptive;
  Cell det_static, det_adaptive;
  Cell pl_static, pl_adaptive;
  /// `hinted` runs only the deterministic race surface.
  bool det_only() const { return shape == Shape::kHinted; }
};

struct CheckLine {
  std::string what;
  double adaptive = 0, standard = 0, bound = 0;
  bool ok = false;
};

CheckLine check_metric(const std::string& what, double adaptive,
                       double standard, double factor, double slack) {
  CheckLine l;
  l.what = what;
  l.adaptive = adaptive;
  l.standard = standard;
  l.bound = standard * factor + slack;
  l.ok = adaptive <= l.bound;
  return l;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::size_t races = static_cast<std::size_t>(cli.get_int("races", 200));
  const std::size_t queries =
      static_cast<std::size_t>(cli.get_int("queries", 120));
  const std::size_t alts = static_cast<std::size_t>(cli.get_int("alts", 4));
  const VDuration work_us = cli.get_int("work_us", 4);
  const int spins = static_cast<int>(cli.get_int("spins", 40));
  const std::size_t burst = static_cast<std::size_t>(cli.get_int("burst", 60));
  const std::size_t reps = static_cast<std::size_t>(cli.get_int("reps", 3));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const double tie_wasted = cli.get_double("tie_wasted", 1.10);
  const double tie_p99 = cli.get_double("tie_p99", 1.25);
  const bool check = cli.has("check");
  const bool check_wall = check && cli.get("check", "") != "det";
  const std::string json_path = cli.get("json", "");

  const std::size_t tables = alts;
  const std::size_t facts_per = 24;
  const std::size_t pl_burst = std::max<std::size_t>(1, burst / 2);

  std::cout << "Static vs adaptive speculation policy (core/spec_policy)\n"
            << "race surfaces: " << alts << "-way kPool races x " << races
            << ", winner " << work_us << " us, losers " << spins
            << " spins; prolog surface: " << tables << "-clause choice x "
            << queries << " queries\n";

  std::vector<ShapeResult> results;
  TablePrinter table({"shape", "surface", "st_wasted", "ad_wasted", "st_p99",
                      "ad_p99", "st_losers", "ad_losers", "vetoes"});
  auto count = [](std::uint64_t v) {
    return TablePrinter::num(static_cast<std::int64_t>(v));
  };
  for (Shape shape :
       {Shape::kUniform, Shape::kSkewed, Shape::kBursty, Shape::kHinted}) {
    ShapeResult r;
    r.shape = shape;
    r.det_static =
        run_det_race_cell(PolicyMode::kStatic, shape, races * kDetRaceFactor,
                          alts, work_us, spins, burst, seed);
    r.det_adaptive =
        run_det_race_cell(PolicyMode::kAdaptive, shape, races * kDetRaceFactor,
                          alts, work_us, spins, burst, seed);
    if (!r.det_only()) {
      r.race_static = run_race_cell(PolicyMode::kStatic, shape, races, alts,
                                    work_us, spins, burst, seed, reps);
      r.race_adaptive = run_race_cell(PolicyMode::kAdaptive, shape, races,
                                      alts, work_us, spins, burst, seed, reps);
      r.pl_static = run_prolog_cell(PolicyMode::kStatic, shape, queries,
                                    tables, facts_per, pl_burst, seed);
      r.pl_adaptive = run_prolog_cell(PolicyMode::kAdaptive, shape, queries,
                                      tables, facts_per, pl_burst, seed);
      table.add_row({shape_name(shape), "race",
                     TablePrinter::num(r.race_static.wasted, 3),
                     TablePrinter::num(r.race_adaptive.wasted, 3),
                     TablePrinter::num(r.race_static.p99, 0),
                     TablePrinter::num(r.race_adaptive.p99, 0), "-", "-",
                     "-"});
    }
    table.add_row({shape_name(shape), "race_det", "-", "-", "-", "-",
                   count(r.det_static.losers_run),
                   count(r.det_adaptive.losers_run), "-"});
    if (!r.det_only()) {
      table.add_row({shape_name(shape), "prolog",
                     TablePrinter::num(r.pl_static.wasted, 3),
                     TablePrinter::num(r.pl_adaptive.wasted, 3),
                     TablePrinter::num(r.pl_static.p99, 0),
                     TablePrinter::num(r.pl_adaptive.p99, 0), "-", "-",
                     count(r.pl_adaptive.vetoes)});
    }
    results.push_back(r);
  }
  table.print(std::cout);
  std::cout << "(race p99 in wall us; race_det losers = loser bodies run "
               "before the winner, deterministic; prolog p99 in "
               "inferences-to-answer — deterministic. On `skewed` and "
               "`bursty` the adaptive columns should be clearly lower: the "
               "policy learns the hot position and runs it first, so losers "
               "are revoked unrun. On `uniform` there is no signal and the "
               "modes tie.)\n";

  bool pass = true;
  std::vector<CheckLine> lines;
  if (check) {
    const double wasted_slack = 0.05;
    const double p99_slack_us = 150.0;
    // One full fact-table scan of slack: with no signal (uniform) the two
    // modes' orderings differ by at most where the winning clause lands.
    const double p99_slack_inf = static_cast<double>(facts_per);
    for (const ShapeResult& r : results) {
      const std::string n = shape_name(r.shape);
      // Where there is a signal, the learned order must run no more losers
      // than static. `uniform` has none: both orders run 1.5 losers a race
      // in expectation, so it gets the wasted-work tie band instead. So
      // does `hinted`, whose static order is already the best: a learned
      // order that ranks the wrong-hint winner second on most races, but
      // not all, lands a few percent above it.
      const bool tie_band =
          r.shape == Shape::kUniform || r.shape == Shape::kHinted;
      lines.push_back(check_metric(
          n + "/race_det losers", static_cast<double>(r.det_adaptive.losers_run),
          static_cast<double>(r.det_static.losers_run),
          tie_band ? tie_wasted : 1.0, 0.0));
      if (r.det_only()) continue;
      lines.push_back(check_metric(n + "/prolog wasted",
                                   r.pl_adaptive.wasted, r.pl_static.wasted,
                                   tie_wasted, wasted_slack));
      lines.push_back(check_metric(n + "/prolog p99", r.pl_adaptive.p99,
                                   r.pl_static.p99, tie_p99, p99_slack_inf));
      if (!check_wall) continue;
      lines.push_back(check_metric(n + "/race wasted",
                                   r.race_adaptive.wasted,
                                   r.race_static.wasted, tie_wasted,
                                   wasted_slack));
      lines.push_back(check_metric(n + "/race p99", r.race_adaptive.p99,
                                   r.race_static.p99, tie_p99,
                                   p99_slack_us));
    }
    for (const CheckLine& l : lines) {
      pass = pass && l.ok;
      std::cout << "check: " << l.what << " adaptive " << l.adaptive
                << " <= " << l.bound << " (static " << l.standard
                << "): " << (l.ok ? "PASS" : "FAIL") << "\n";
    }
    if (!check_wall)
      std::cout << "check: wall-clock race columns not gated (--check=det)\n";
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"policy_ab\",\n  \"alts\": " << alts
        << ",\n  \"races\": " << races << ",\n  \"queries\": " << queries
        << ",\n  \"seed\": " << seed << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const ShapeResult& r = results[i];
      auto cell = [](const Cell& c) {
        std::string s = "{\"wasted\": " + std::to_string(c.wasted) +
                        ", \"p50\": " + std::to_string(c.p50) +
                        ", \"p99\": " + std::to_string(c.p99) +
                        ", \"losers_run\": " + std::to_string(c.losers_run) +
                        ", \"vetoes\": " + std::to_string(c.vetoes) + "}";
        return s;
      };
      out << "    {\"shape\": \"" << shape_name(r.shape) << "\",\n";
      if (!r.det_only())
        out << "     \"race_static\": " << cell(r.race_static) << ",\n"
            << "     \"race_adaptive\": " << cell(r.race_adaptive) << ",\n"
            << "     \"prolog_static\": " << cell(r.pl_static) << ",\n"
            << "     \"prolog_adaptive\": " << cell(r.pl_adaptive) << ",\n";
      out << "     \"race_det_static\": " << cell(r.det_static) << ",\n"
          << "     \"race_det_adaptive\": " << cell(r.det_adaptive) << "}"
          << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"check\": {\"enabled\": " << (check ? "true" : "false")
        << ", \"wall_clock\": " << (check_wall ? "true" : "false")
        << ", \"tie_wasted\": " << tie_wasted << ", \"tie_p99\": " << tie_p99
        << ", \"pass\": " << (pass ? "true" : "false") << "}\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return pass ? 0 : 1;
}
