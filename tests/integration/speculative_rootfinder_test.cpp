// Integration: the §4.3 rootfinder application across execution backends —
// num (Jenkins–Traub) + core (alternative blocks) + proc (schedulers).
#include <gtest/gtest.h>

#include "core/alt.hpp"
#include "core/alt_context.hpp"
#include "core/runtime.hpp"
#include "num/jenkins_traub.hpp"
#include "num/polyalgorithm.hpp"
#include "num/workload.hpp"

namespace mw {
namespace {

std::vector<Alternative> angle_alternatives(const Poly& poly, int n,
                                            VDuration per_iter) {
  std::vector<Alternative> alts;
  for (int k = 0; k < n; ++k) {
    const double angle = 49.0 + 360.0 * k / n;
    alts.push_back(Alternative{
        "angle" + std::to_string(k), nullptr,
        [&poly, angle, per_iter](AltContext& ctx) {
          JtConfig jt;
          jt.start_angle_deg = angle;
          RootResult r = jenkins_traub(poly, jt);
          ctx.work(static_cast<VDuration>(r.iterations) * per_iter);
          if (!r.converged) ctx.fail(r.note);
          // Publish the root count as the result payload.
          ctx.set_result_string(std::to_string(r.roots.size()));
        },
        nullptr});
  }
  return alts;
}

TEST(SpeculativeRootfinder, VirtualBackendFindsAllRoots) {
  Rng rng(21);
  PolyWorkload w = make_clustered_poly(rng);
  RuntimeConfig cfg;
  cfg.backend = AltBackend::kVirtual;
  cfg.processors = 2;
  cfg.cost = CostModel::calibrated_hp();
  Runtime rt(cfg);
  World root = rt.make_root();
  auto out = run_alternatives(rt, root,
                              angle_alternatives(w.poly, 4, vt_ms(5)));
  ASSERT_FALSE(out.failed);
  EXPECT_EQ(std::string(out.result.begin(), out.result.end()),
            std::to_string(w.poly.degree()));
}

TEST(SpeculativeRootfinder, VirtualDeterministicAcrossRuns) {
  Rng rng(22);
  PolyWorkload w = make_clustered_poly(rng);
  auto run = [&] {
    RuntimeConfig cfg;
    cfg.backend = AltBackend::kVirtual;
    cfg.processors = 2;
    cfg.cost = CostModel::calibrated_hp();
    Runtime rt(cfg);
    World root = rt.make_root();
    return run_alternatives(rt, root,
                            angle_alternatives(w.poly, 5, vt_ms(5)));
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a.winner, b.winner);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.overhead.total(), b.overhead.total());
}

TEST(SpeculativeRootfinder, PoolBackendAgreesOnOutcome) {
  Rng rng(23);
  PolyWorkload w = make_clustered_poly(rng);
  RuntimeConfig cfg;
  cfg.backend = AltBackend::kPool;
  cfg.pool.workers = 3;
  Runtime rt(cfg);
  World root = rt.make_root();
  auto out = run_alternatives(rt, root,
                              angle_alternatives(w.poly, 3, vt_ms(1)));
  ASSERT_FALSE(out.failed);
  EXPECT_EQ(std::string(out.result.begin(), out.result.end()),
            std::to_string(w.poly.degree()));
}

TEST(SpeculativeRootfinder, ProcessorSharingAndFcfsAgreeOnWinnerSet) {
  // Different schedulers may pick different winners, but both must pick a
  // *successful* alternative, and PS must never beat FCFS's winner time
  // when there are at least as many processors as alternatives.
  Rng rng(25);
  PolyWorkload w = make_clustered_poly(rng);
  auto run = [&](RuntimeConfig::Sched sched, std::size_t procs) {
    RuntimeConfig cfg;
    cfg.backend = AltBackend::kVirtual;
    cfg.processors = procs;
    cfg.sched = sched;
    cfg.cost = CostModel::free();
    Runtime rt(cfg);
    World root = rt.make_root();
    return run_alternatives(rt, root,
                            angle_alternatives(w.poly, 4, vt_ms(5)));
  };
  auto fcfs = run(RuntimeConfig::Sched::kFcfs, 4);
  auto ps = run(RuntimeConfig::Sched::kProcessorSharing, 4);
  ASSERT_FALSE(fcfs.failed);
  ASSERT_FALSE(ps.failed);
  // With processors >= alternatives both run everything at full rate:
  // same winner, same time.
  EXPECT_EQ(fcfs.winner, ps.winner);
  EXPECT_EQ(fcfs.elapsed, ps.elapsed);
}

TEST(SpeculativeRootfinder, PolyalgorithmAsAlternatives) {
  // §4.3's other use: rotations of a method suite racing as alternatives.
  Rng rng(26);
  WorkloadConfig wcfg;
  wcfg.degree = 10;
  wcfg.clusters = 1;
  wcfg.cluster_gap = 0.05;
  PolyWorkload w = make_clustered_poly(rng, wcfg);

  RuntimeConfig cfg;
  cfg.backend = AltBackend::kVirtual;
  cfg.processors = 4;
  cfg.cost = CostModel::free();
  Runtime rt(cfg);
  World root = rt.make_root();

  std::vector<Alternative> alts;
  auto suite = standard_method_suite();
  for (auto& rotation : method_rotations(suite)) {
    alts.push_back(Alternative{
        "starts-with-" + rotation[0].name, nullptr,
        [&w, rotation](AltContext& ctx) {
          auto out = run_polyalgorithm(w.poly, rotation);
          ctx.work(static_cast<VDuration>(out.total_iterations));
          if (!out.result.converged) ctx.fail("all methods failed");
          ctx.set_result_string(out.method_used);
        },
        nullptr});
  }
  auto out = run_alternatives(rt, root, alts);
  ASSERT_FALSE(out.failed);
  // Whatever rotation won, the winning method must be from the suite.
  const std::string used(out.result.begin(), out.result.end());
  bool known = false;
  for (const auto& m : suite) known |= m.name == used;
  EXPECT_TRUE(known) << used;
}

}  // namespace
}  // namespace mw
