// Quickstart: race two alternative methods of computing the same result,
// commit the winner's state, discard the loser — the paper's §1.1 block in
// a dozen lines of library code.
//
//   $ quickstart [--backend=virtual|pool]
#include <cstdio>

#include "core/alt.hpp"
#include "core/alt_context.hpp"
#include "core/runtime.hpp"
#include "util/cli.hpp"

using namespace mw;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  RuntimeConfig cfg;
  cfg.backend = cli.get("backend", "virtual") == "pool" ? AltBackend::kPool
                                                        : AltBackend::kVirtual;
  cfg.processors = 2;
  cfg.pool.workers = 2;
  Runtime rt(cfg);

  // The problem: populate offset 0 with the answer. Two methods exist; we
  // do not know in advance which is faster on this input.
  World root = rt.make_root("quickstart");

  AltOutcome out =
      AltBlock(rt, root)
          .alt("analytic",
               [](AltContext& ctx) {
                 ctx.compute(vt_ms(3));  // a cheap closed-form path
                 ctx.space().store<int>(0, 42);
                 ctx.set_result_string("analytic shortcut");
               })
          .alt("brute-force",
               [](AltContext& ctx) {
                 ctx.compute(vt_ms(40));  // grinding search
                 ctx.space().store<int>(0, 42);
                 ctx.set_result_string("exhaustive search");
               })
          .timeout(vt_sec(2))
          .run();

  if (out.failed) {
    std::printf("block failed\n");
    return 1;
  }
  std::printf("winner:   %s (alternative %zu)\n", out.winner_name.c_str(),
              *out.winner + 1);
  std::printf("answer:   %d\n", root.space().load<int>(0));
  std::printf("method:   %s\n",
              std::string(out.result.begin(), out.result.end()).c_str());
  std::printf("elapsed:  %.3f ms\n", vt_to_ms(out.elapsed));
  std::printf("overhead: setup %.3f ms, copy %.3f ms, commit %.3f ms, "
              "elimination %.3f ms\n",
              vt_to_ms(out.overhead.setup), vt_to_ms(out.overhead.copying),
              vt_to_ms(out.overhead.commit),
              vt_to_ms(out.overhead.elimination));
  // The throughput side of the paper's trade: work thrown away to buy the
  // response time above.
  std::printf("ledger:   %llu alternatives spawned, waste ratio %.0f%%, "
              "wasted work %.3f ms\n",
              static_cast<unsigned long long>(
                  rt.stats().alternatives_spawned),
              rt.stats().waste_ratio() * 100.0,
              vt_to_ms(rt.stats().wasted_work));
  return 0;
}
