// Runtime: configuration and shared services (process table, alt-group id
// allocation, deterministic seeding) for alternative-block execution.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "core/alt.hpp"
#include "core/spec_policy.hpp"
#include "core/spec_scheduler.hpp"
#include "core/world.hpp"
#include "proc/cost_model.hpp"
#include "proc/process_table.hpp"
#include "util/rng.hpp"

namespace mw {

struct RuntimeConfig {
  AltBackend backend = AltBackend::kVirtual;

  /// World geometry. 256 pages of 4 KiB = a 1 MiB address space, roughly
  /// the era's process sizes; benches override.
  std::size_t page_size = 4096;
  std::size_t num_pages = 256;

  /// Virtual processors for the kVirtual scheduler (the paper's Table I
  /// machine had 2). kPool runs on `pool.workers` real threads instead.
  std::size_t processors = 2;

  /// Virtual scheduling policy: run-to-completion FCFS, or timesharing
  /// (egalitarian processor sharing — what the paper's UNIX machines ran;
  /// required to reproduce Table I's behaviour when processes outnumber
  /// processors).
  enum class Sched { kFcfs, kProcessorSharing };
  Sched sched = Sched::kFcfs;

  /// Per-operation overhead charges for the kVirtual backend.
  CostModel cost = CostModel::calibrated_hp();

  /// Root seed; every alternative derives an independent stream.
  std::uint64_t seed = 1;

  /// The kPool backend's scheduler: worker count, admission budget,
  /// deterministic mode. Ignored by the other backends.
  SchedConfig pool;

  /// Speculation policy (core/spec_policy.hpp). The default mode, kAuto,
  /// resolves per engine: kAdaptive on the wall-clock kPool
  /// (pool.deterministic_seed 0), where learned per-position win rates
  /// order each race, and kStatic on kVirtual and deterministic kPool,
  /// which stay bit-for-bit replayable. kAdaptive closes the loop from race
  /// outcomes into alternative ordering and the or-parallel split veto. An
  /// explicit mode is kept.
  PolicyConfig policy;
};

/// Aggregate speculation accounting across a runtime's lifetime: the
/// throughput ledger behind the paper's response-time-vs-throughput trade.
struct RuntimeStats {
  std::uint64_t blocks_run = 0;
  std::uint64_t blocks_won = 0;       // a winner committed
  std::uint64_t blocks_failed = 0;    // failure alternative selected
  std::uint64_t alternatives_spawned = 0;
  std::uint64_t alternatives_eliminated = 0;  // losers killed
  std::uint64_t alternatives_aborted = 0;     // guard/body failures
  /// Pool backend: losers pruned from the queue before their body ever ran
  /// (a subset of alternatives_eliminated — free eliminations).
  std::uint64_t alternatives_revoked = 0;
  VDuration total_elapsed = 0;           // sum of block response times
  VDuration total_overhead = 0;          // sum of charged tau(overhead)
  /// Work performed by losers: pure throughput cost (virtual backend).
  VDuration wasted_work = 0;

  /// Fraction of spawned alternatives whose work was discarded.
  double waste_ratio() const {
    const auto spawned = static_cast<double>(alternatives_spawned);
    return spawned > 0
               ? static_cast<double>(alternatives_eliminated +
                                     alternatives_aborted) /
                     spawned
               : 0.0;
  }
};

class Runtime {
 public:
  explicit Runtime(RuntimeConfig config = {})
      : config_(config), policy_(resolve_policy(config)) {}

  const RuntimeConfig& config() const { return config_; }
  ProcessTable& processes() { return table_; }

  /// The speculation policy engine: every backend feeds it race outcomes
  /// via record_outcome; the kPool dispatch paths and the or-parallel
  /// driver consult it for decisions. In kStatic mode the decisions are
  /// pass-throughs and only the (cheap) observation taps run. Its mode is
  /// already resolved (never kAuto).
  SpecPolicy& policy() { return policy_; }

  /// Lifetime speculation ledger; updated by every alternative block.
  const RuntimeStats& stats() const { return stats_; }

  /// Folds a finished block into the ledger (called by the backends;
  /// thread-safe for nested blocks running on worker threads).
  void record_outcome(const AltOutcome& out) {
    policy_.observe_race(out);
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.blocks_run;
    if (out.failed) {
      ++stats_.blocks_failed;
    } else {
      ++stats_.blocks_won;
    }
    for (const AltReport& a : out.alts) {
      if (!a.spawned) continue;
      ++stats_.alternatives_spawned;
      if (a.revoked) ++stats_.alternatives_revoked;
      if (a.success) continue;
      if (a.pid != kNoPid &&
          table_.status(a.pid) == ProcStatus::kFailed) {
        ++stats_.alternatives_aborted;
      } else {
        ++stats_.alternatives_eliminated;
      }
      if (a.ran && a.finish > a.start) stats_.wasted_work += a.finish - a.start;
    }
    stats_.total_elapsed += out.elapsed;
    stats_.total_overhead += out.overhead.total();
  }

  /// A fresh root world with the configured geometry.
  World make_root(std::string label = "root") {
    return World(table_, config_.page_size, config_.num_pages,
                 std::move(label));
  }

  std::uint64_t next_alt_group() {
    return group_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// The shared work-stealing scheduler behind the kPool backend, built
  /// lazily from config().sched on first use — a Runtime that never runs a
  /// pool block never spawns a worker thread.
  SpecScheduler& scheduler() {
    std::call_once(sched_once_, [this] {
      sched_ = std::make_unique<SpecScheduler>(config_.pool);
    });
    return *sched_;
  }

  /// Deterministic per-(group, alternative) random stream.
  Rng rng_for(std::uint64_t group, std::size_t alt_index) const {
    Rng base(config_.seed);
    return base.split(group * 1000003ull + alt_index);
  }

 private:
  static PolicyConfig resolve_policy(const RuntimeConfig& config) {
    PolicyConfig pc = config.policy;
    if (pc.mode == PolicyMode::kAuto) {
      const bool wall_clock_pool = config.backend == AltBackend::kPool &&
                                   config.pool.deterministic_seed == 0;
      pc.mode = wall_clock_pool ? PolicyMode::kAdaptive : PolicyMode::kStatic;
    }
    return pc;
  }

  RuntimeConfig config_;
  SpecPolicy policy_;
  ProcessTable table_;
  std::atomic<std::uint64_t> group_counter_{0};
  std::once_flag sched_once_;
  std::unique_ptr<SpecScheduler> sched_;
  std::mutex stats_mu_;
  RuntimeStats stats_;
};

}  // namespace mw
