// COMMIT-THROUGHPUT — the pagestore's kPool commit path vs worker count.
//
// This bench runs what the kPool engine does with pages, as worker count
// grows: each worker repeatedly forks a scoped child of its own parent
// world (PageTable::fork_scoped — the child borrows the parent's leaf
// pages), COW-writes `--writes` pages of it, and adopts it back (a root
// swap plus settle), which frees the parent's replaced pages and leaves.
// Each worker claims a pagestore slot (PageShard) exactly as
// SpecScheduler binds its pool threads, so its frames and radix nodes
// come from its own free lists; workers share nothing but the pool. One
// op = one child committed.
//
// Two checks guard the allocator (--check):
//   * no 1-thread regression — a worker that holds a slot must commit
//     within 10% of an *unbound* worker, whose every allocation takes the
//     pool's shared, locked path;
//   * scaling — with at least 4 hardware threads, aggregate commit
//     throughput at W >= 4 must be at least 2x the 1-thread figure (skipped
//     with a note on smaller machines; the sweep itself still runs).
//
//   $ commit_throughput [--maxw=N] [--seg_pages=64] [--writes=64]
//                       [--rounds=2000] [--trials=5] [--page_size=1024]
//                       [--check] [--json=BENCH_commit_throughput.json]
//                       [--trace=FILE] [--profile]
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include "core/runtime_auditor.hpp"
#include "pagestore/page_pool.hpp"
#include "pagestore/page_table.hpp"
#include "pagestore/shard.hpp"
#include "proc/process_table.hpp"
#include "trace/trace_cli.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/threading.hpp"

using namespace mw;

namespace {

// Reusable two-phase barrier (generation counter); std::barrier without the
// C++20 header dependency gamble.
class Barrier {
 public:
  explicit Barrier(std::size_t n) : n_(n) {}
  void arrive_and_wait() {
    std::unique_lock<std::mutex> lk(mu_);
    const std::uint64_t gen = gen_;
    if (++arrived_ == n_) {
      arrived_ = 0;
      ++gen_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lk, [&] { return gen_ != gen; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t n_;
  std::size_t arrived_ = 0;
  std::uint64_t gen_ = 0;
};

struct Opts {
  std::size_t seg_pages = 64;   // pages per worker's parent
  std::size_t writes = 64;      // COW writes per child per round
  std::size_t rounds = 2000;    // commits per worker per trial
  int trials = 5;
  std::size_t page_size = 1024;
};

struct ConfigResult {
  std::size_t workers = 0;
  bool bound = true;            // workers hold pagestore slots
  double ns_per_commit = 0;
  double commits_per_sec = 0;
  double pages_per_sec = 0;
};

// Runs the fork_scoped/COW-write/adopt loop on `W` persistent worker
// threads, one parent table each; returns the median-trial throughput.
// `bind` selects workers holding slots or (baseline) unbound workers.
ConfigResult run_config(std::size_t W, bool bind, const Opts& o) {
  Barrier start(W + 1), done(W + 1);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> rounds{0};

  std::vector<std::thread> workers;
  workers.reserve(W);
  for (std::size_t w = 0; w < W; ++w) {
    workers.emplace_back([&] {
      if (bind) PageShard::bind();
      PageTable parent(o.page_size, o.seg_pages);
      for (std::size_t p = 0; p < o.seg_pages; ++p) parent.write_page(p)[0] = 1;
      while (true) {
        start.arrive_and_wait();
        if (stop.load(std::memory_order_acquire)) break;
        for (std::size_t r = rounds.load(); r > 0; --r) {
          PageTable child = parent.fork_scoped();
          for (std::size_t i = 0; i < o.writes; ++i) {
            std::uint8_t* d = child.write_page(i % o.seg_pages);
            d[i % o.page_size] ^= 0x5a;
          }
          parent.adopt(std::move(child));
        }
        done.arrive_and_wait();
      }
      PageShard::unbind();
    });
  }

  auto run_rounds = [&](std::size_t n) {
    rounds = n;
    start.arrive_and_wait();
    done.arrive_and_wait();
  };

  run_rounds(2);  // warm up: populate pools, reach COW steady state
  std::vector<double> samples;  // commits per second, one per trial
  for (int t = 0; t < o.trials; ++t) {
    Stopwatch sw;
    run_rounds(o.rounds);
    const double secs = sw.elapsed_ms() / 1e3;
    samples.push_back(static_cast<double>(o.rounds * W) / secs);
  }
  stop.store(true, std::memory_order_release);
  start.arrive_and_wait();
  for (auto& th : workers) th.join();

  ConfigResult res;
  res.workers = W;
  res.bound = bind;
  res.commits_per_sec = summarize(samples).median;
  res.ns_per_commit = 1e9 / res.commits_per_sec;
  res.pages_per_sec = res.commits_per_sec * static_cast<double>(o.writes);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  Opts o;
  o.seg_pages = static_cast<std::size_t>(cli.get_int("seg_pages", 64));
  o.writes = static_cast<std::size_t>(
      cli.get_int("writes", static_cast<std::int64_t>(o.seg_pages)));
  o.rounds = static_cast<std::size_t>(cli.get_int("rounds", 2000));
  o.trials = static_cast<int>(cli.get_int("trials", 5));
  o.page_size = static_cast<std::size_t>(cli.get_int("page_size", 1024));
  const std::size_t hw = hw_threads();
  const std::size_t maxw = static_cast<std::size_t>(
      cli.get_int("maxw", static_cast<std::int64_t>(hw)));
  const bool check = cli.has("check");
  const std::string json_path = cli.get("json", "");
  trace::TraceSession trace_session(cli);
  trace_session.set_profile_hook(
      [](trace::SpecProfile& p) { PagePool::global().fold_into(p); });

  // Leak guard: every config must hand all its pages back by destruction.
  RuntimeAuditor auditor;

  // Worker counts: powers of two up to maxw, plus maxw itself.
  std::vector<std::size_t> ws;
  for (std::size_t w = 1; w <= maxw; w *= 2) ws.push_back(w);
  if (ws.empty() || ws.back() != maxw) ws.push_back(maxw);

  std::cout << "kPool commit throughput vs worker count ("
            << o.page_size << " B pages, " << o.seg_pages
            << "-page parents, " << o.writes
            << " COW writes per child; median of " << o.trials
            << " trials x " << o.rounds << " rounds; " << hw
            << " hardware thread(s))\n";
  TablePrinter table(
      {"workers", "mode", "ns_per_commit", "commits_per_s", "pages_per_s"});

  // The baseline: one worker left unbound, so its every allocation takes
  // the pool's shared, locked path.
  const ConfigResult base = run_config(1, /*bind=*/false, o);
  table.add_row({TablePrinter::num(std::int64_t{1}), "shared",
                 TablePrinter::num(base.ns_per_commit, 0),
                 TablePrinter::num(base.commits_per_sec, 0),
                 TablePrinter::num(base.pages_per_sec, 0)});

  std::vector<ConfigResult> rows;
  for (std::size_t w : ws) {
    rows.push_back(run_config(w, /*bind=*/true, o));
    const ConfigResult& r = rows.back();
    table.add_row({TablePrinter::num(static_cast<std::int64_t>(r.workers)),
                   "slot", TablePrinter::num(r.ns_per_commit, 0),
                   TablePrinter::num(r.commits_per_sec, 0),
                   TablePrinter::num(r.pages_per_sec, 0)});
  }
  table.print(std::cout);
  std::cout << "(commits_per_s is aggregate across workers: each commit is "
               "fork_scoped + COW-write + adopt; the shared row is the "
               "unbound-worker baseline)\n";

  const double regression = rows.front().ns_per_commit / base.ns_per_commit;
  bool pass = true;
  bool scaling_checked = false;
  double speedup = 0.0;
  if (check) {
    const bool reg_ok = regression <= 1.10;
    if (!reg_ok) pass = false;
    std::cout << "\ncheck: 1-thread slot/shared ns ratio " << regression
              << " (limit 1.10): " << (reg_ok ? "PASS" : "FAIL") << "\n";
    // Scaling: best aggregate throughput at >= 4 workers vs 1 thread.
    double best = 0.0;
    for (const ConfigResult& r : rows)
      if (r.workers >= 4 && r.commits_per_sec > best)
        best = r.commits_per_sec;
    if (hw >= 4 && best > 0.0) {
      scaling_checked = true;
      speedup = best / rows.front().commits_per_sec;
      const bool ok = speedup >= 2.0;
      if (!ok) pass = false;
      std::cout << "check: aggregate speedup at >=4 workers " << speedup
                << "x (limit 2.0x): " << (ok ? "PASS" : "FAIL") << "\n";
    } else {
      std::cout << "check: scaling skipped (" << hw
                << " hardware thread(s) < 4 — the 2x bound needs real "
                   "cores)\n";
    }
  }

  // All parents/children are gone: the pool may hold frames, but no Page
  // object may outlive its table.
  ProcessTable procs;
  const AuditReport audit = auditor.run(procs);
  std::cout << audit.to_string() << "\n";
  if (!audit.clean()) pass = false;

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"commit_throughput\",\n"
        << "  \"page_size\": " << o.page_size
        << ",\n  \"seg_pages\": " << o.seg_pages
        << ",\n  \"writes\": " << o.writes
        << ",\n  \"hardware_threads\": " << hw
        << ",\n  \"baseline\": {\"workers\": 1, \"mode\": \"shared\", "
        << "\"ns_per_commit\": " << base.ns_per_commit
        << ", \"commits_per_sec\": " << base.commits_per_sec << "},\n"
        << "  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const ConfigResult& r = rows[i];
      out << "    {\"workers\": " << r.workers
          << ", \"ns_per_commit\": " << r.ns_per_commit
          << ", \"commits_per_sec\": " << r.commits_per_sec
          << ", \"pages_per_sec\": " << r.pages_per_sec << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"check\": {\"enabled\": " << (check ? "true" : "false")
        << ", \"regression_ratio\": " << regression
        << ", \"regression_limit\": 1.10"
        << ", \"scaling_checked\": " << (scaling_checked ? "true" : "false")
        << ", \"speedup\": " << speedup
        << ", \"speedup_limit\": 2.0"
        << ", \"audit_clean\": " << (audit.clean() ? "true" : "false")
        << ", \"pass\": " << (pass ? "true" : "false") << "}\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }

  trace_session.finish(std::cout);
  return pass ? 0 : 1;
}
