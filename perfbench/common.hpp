// Shared plumbing for the benchmark binary: the one clock every process
// stamps with, CPU and RSS probes, and the result line with its metrics.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC in ns. The generator and the node processes read the
/// same clock, so stamps taken in different processes subtract directly.
inline std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline double ns_to_us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// User + system CPU of this process, all threads, in µs.
inline double cpu_us() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

/// Peak resident set of this process so far, in MiB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// splitmix64's finalizer: spreads seeds and salts over all 64 bits.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Median of `v`; 0 when empty.
double median(std::vector<double> v);

/// A run as the command line asked for it.
struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string scratch;  // directory for run files (the shared effect log)
};

/// Set-ups per run: setup_s is their median, and the last one leads into
/// the timed window.
inline constexpr int kSetupReps = 7;

/// A p99 needs ten samples beyond it.
inline constexpr std::size_t kMinP99Samples = 1000;

/// A run that cannot report an honest number (too few samples, a node
/// process that died): main() prints the reason and exits with no result.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Metrics by name, each with its unit, in the order they were added.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// `name`.p50, and `name`.p99 when `with_p99`, in µs, plus the sample
  /// count `name`.n. A p99 over fewer than kMinP99Samples is a BenchError.
  /// No samples at all means the workload does not reach that layer: 0,
  /// with n = 0.
  void percentiles(const std::string& name, std::vector<double> us,
                   bool with_p99);
  std::string json(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// The end-to-end inputs of an untraced run.
struct EndToEnd {
  std::vector<double> setup_s;     // one per set-up
  std::vector<double> latency_us;  // one per op that passed its checks,
                                   // in the order the ops ran
  double throughput_per_s = 0;
  double ok_ratio = 0;
  double cpu_us_per_op = 0;
  double peak_rss_mb = 0;
};
void add_end_to_end(Report& r, EndToEnd e);

/// The per-layer inputs of a traced run. Every workload reports every
/// layer; what a workload does not reach stays 0 (percentiles: n = 0).
struct Layers {
  // pagestore
  double cow_pages_per_op = 0;
  std::vector<double> winner_store_us;
  double pool_hit_ratio = 0;
  double live_pages_peak = 0;
  // core
  std::vector<double> queue_wait_us, winner_body_us, tail_us, cancel_lag_us;
  double revoked_ratio = 0, steal_ratio = 0;
  double loser_ran_ratio = 0, wasted_work_ratio = 0;
  // dist
  std::vector<double> request_net_us, response_net_us, send_us;
  // service
  std::vector<double> handle_us, pending_us, finish_us;
  std::vector<double> effect_append_us, effect_refresh_us;
  double queued_ratio = 0, shed_ratio = 0, misroutes = 0;
  // bench
  std::vector<double> gen_late_us;
  double trace_overhead_ratio = 0;  // traced p50 / untraced p50 - 1
  double span_coverage = 0;  // median share of a traced op's latency that
                             // its spans account for
};
void add_layers(Report& r, Layers l);

/// What a workload run hands back to main().
struct RunResult {
  Report report;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

RunResult run_race(const Args& args);
RunResult run_svc(const Args& args);
/// Entry point of a cluster node process (this binary, re-executed).
int node_main(int argc, char** argv);

}  // namespace perfbench
