// mwperf: the repository benchmark's binary. perfbench/run.py builds it and
// passes the command line through:
//
//   mwperf --workload race_cow|race_prune|svc_socket --seed N --seconds S
//          --trace 0|1 --scratch DIR
//
// The last stdout line is the JSON result. Exit 0 when every output check
// passed, 1 when one failed (the result still prints), 2 when no honest
// result exists (bad flags, too few samples, a node process that died).
#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <string>

#include "common.hpp"
#include "util/stats.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return mw::percentile_sorted(v, 0.5);
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) throw BenchError(name + " is not finite");
  metrics_.push_back({name, value, unit});
}

void Report::percentiles(const std::string& name, std::vector<double> us,
                         bool with_p99) {
  if (with_p99 && !us.empty() && us.size() < kMinP99Samples)
    throw BenchError(name + ": " + std::to_string(us.size()) +
                     " samples, a p99 needs " +
                     std::to_string(kMinP99Samples));
  std::sort(us.begin(), us.end());
  const auto at = [&](double q) {
    return us.empty() ? 0.0 : mw::percentile_sorted(us, q);
  };
  add(name + ".p50", at(0.5), "us");
  if (with_p99) add(name + ".p99", at(0.99), "us");
  add(name + ".n", static_cast<double>(us.size()), "count");
}

std::string Report::json(bool correct, std::uint64_t attempted,
                         std::uint64_t failed) const {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char num[40];
    std::snprintf(num, sizeof num, "%.17g", metrics_[i].value);
    out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  return out + "}}";
}

void add_end_to_end(Report& r, EndToEnd e) {
  const std::size_t n = e.latency_us.size();
  if (n < kMinP99Samples)
    throw BenchError("only " + std::to_string(n) +
                     " ops completed; a p99 needs " +
                     std::to_string(kMinP99Samples));
  // p99 is the median of the p99s of consecutive slices of the run, each
  // just large enough for a p99 (kMinP99Samples ops): a stall of the shared
  // machine then moves the p99 of the few slices it falls in, not the
  // run's.
  const std::size_t slices = n / kMinP99Samples;
  std::vector<double> slice_p99;
  for (std::size_t i = 0; i < slices; ++i) {
    std::vector<double> s(e.latency_us.begin() + i * n / slices,
                          e.latency_us.begin() + (i + 1) * n / slices);
    std::sort(s.begin(), s.end());
    slice_p99.push_back(mw::percentile_sorted(s, 0.99));
  }
  r.add("setup_s", median(e.setup_s), "s");
  r.add("p50_us", median(std::move(e.latency_us)), "us");
  r.add("p99_us", median(std::move(slice_p99)), "us");
  r.add("latency_samples", static_cast<double>(n), "count");
  r.add("throughput_per_s", e.throughput_per_s, "1/s");
  r.add("ok_ratio", e.ok_ratio, "ratio");
  r.add("cpu_us_per_op", e.cpu_us_per_op, "us");
  r.add("peak_rss_mb", e.peak_rss_mb, "MiB");
}

void add_layers(Report& r, Layers l) {
  r.add("pagestore.cow_pages_per_op", l.cow_pages_per_op, "count");
  r.percentiles("pagestore.winner_store_us", std::move(l.winner_store_us),
                false);
  r.add("pagestore.pool_hit_ratio", l.pool_hit_ratio, "ratio");
  r.add("pagestore.live_pages_peak", l.live_pages_peak, "count");

  r.percentiles("core.queue_wait_us", std::move(l.queue_wait_us), true);
  r.percentiles("core.winner_body_us", std::move(l.winner_body_us), false);
  r.percentiles("core.tail_us", std::move(l.tail_us), true);
  r.add("core.revoked_ratio", l.revoked_ratio, "ratio");
  r.add("core.steal_ratio", l.steal_ratio, "ratio");
  r.add("core.loser_ran_ratio", l.loser_ran_ratio, "ratio");
  r.percentiles("core.cancel_lag_us", std::move(l.cancel_lag_us), false);
  r.add("core.wasted_work_ratio", l.wasted_work_ratio, "ratio");

  r.percentiles("dist.request_net_us", std::move(l.request_net_us), false);
  r.percentiles("dist.response_net_us", std::move(l.response_net_us), false);
  r.percentiles("dist.send_us", std::move(l.send_us), false);

  r.percentiles("service.handle_us", std::move(l.handle_us), true);
  r.percentiles("service.pending_us", std::move(l.pending_us), true);
  r.percentiles("service.finish_us", std::move(l.finish_us), false);
  r.percentiles("service.effect_append_us", std::move(l.effect_append_us),
                false);
  r.percentiles("service.effect_refresh_us", std::move(l.effect_refresh_us),
                false);
  r.add("service.queued_ratio", l.queued_ratio, "ratio");
  r.add("service.shed_ratio", l.shed_ratio, "ratio");
  r.add("service.misroutes", l.misroutes, "count");

  std::vector<double>& late = l.gen_late_us;
  if (!late.empty() && late.size() < kMinP99Samples)
    throw BenchError("bench.gen_late_p99_us: too few samples");
  std::sort(late.begin(), late.end());
  r.add("bench.gen_late_p99_us",
        late.empty() ? 0.0 : mw::percentile_sorted(late, 0.99), "us");
  r.add("bench.gen_late_n", static_cast<double>(late.size()), "count");
  r.add("bench.trace_overhead_ratio", l.trace_overhead_ratio, "ratio");
  r.add("bench.span_coverage", l.span_coverage, "ratio");
}

}  // namespace perfbench

namespace {

bool parse(int argc, char** argv, perfbench::Args& a) {
  if (argc % 2 == 0) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--workload") {
      a.workload = val;
    } else if (flag == "--seed") {
      a.seed = std::stoull(val);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(val);
    } else if (flag == "--trace" && (val == "0" || val == "1")) {
      a.trace = val == "1";
    } else if (flag == "--scratch") {
      a.scratch = val;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0 && !a.scratch.empty();
}

}  // namespace

int main(int argc, char** argv) {
  // A dead peer process must surface as a failed write, not kill us.
  std::signal(SIGPIPE, SIG_IGN);
  if (argc > 1 && std::string(argv[1]) == "--node")
    return perfbench::node_main(argc, argv);
  perfbench::Args args;
  try {
    if (!parse(argc, argv, args)) {
      std::cerr << "usage: mwperf --workload race_cow|race_prune|svc_socket "
                   "--seed N --seconds S --trace 0|1 --scratch DIR\n";
      return 2;
    }
    perfbench::RunResult r;
    if (args.workload == "race_cow" || args.workload == "race_prune") {
      r = perfbench::run_race(args);
    } else if (args.workload == "svc_socket") {
      r = perfbench::run_svc(args);
    } else {
      std::cerr << "mwperf: unknown workload " << args.workload << "\n";
      return 2;
    }
    std::cout << r.report.json(r.correct, r.attempted, r.failed) << std::endl;
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "mwperf: " << e.what() << "\n";
    return 2;
  }
}
